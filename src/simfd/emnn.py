"""End-to-end network: TX-DNN, power control, TX/RX stack layers, channel,
RX-DNN, for both terminals in one differentiable graph.

Terminal q transmits its own bit stream and decodes the other terminal's;
the concatenated output, one logit per bit (positive for a 1), is aligned
with the concatenated input [b1 | b2]. The digital networks work on paired
real rows [re | im]; the stacks and the channel are complex128 (see
autograd). Propagation and channel matrices enter the graph as fixed
constants; the trainable state is the DNN weights, the per-layer phase
vectors, batchnorm scale/shift, and (optionally) the power allocation, all
views into one ParamStore buffer.

Once the phases are set, the stacks and the channel are linear in the
transmitted field, so the forward composes each receiver's
antenna-to-antenna operator H_q = R_q [G_1q T_1 | G_2q T_2] instead of
pushing the data batch through them. The stage functions act on complex
rows; started from the identity on the transmit antennas they yield the
transposed operators T_p^T, [T_1^T G_1q^T ; T_2^T G_2q^T] and H_q^T. The
joint complex batch (x1, x2) then meets H_q^T in one matmul, so the stack
cost does not grow with the batch.
"""

import math
import warnings

import numpy as np

from . import autograd as ag
from . import channel as ch
from . import wavefield as wf

POWER_EPS = 1e-12


class ArchitectureError(ValueError):
    """Configuration and network structure disagree."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

# linear-layer biases start slightly positive: with zero biases and binary
# inputs, relu pre-activations sit exactly on their kink at initialization,
# whole layers die, and distinct bit patterns collapse onto one constellation
# point that gradients can never separate again
BIAS_INIT = 0.3


def param_table(config):
    """(name, shape, decay, init) of every trainable, in checkpoint order.

    Each terminal q's rows follow from its TerminalLayout and the bit counts:
    a TX-DNN of widths (n_q, n_q, 2 x TX antennas), one phase vector per
    stack layer, and an RX-DNN from 2 x RX antennas to a head of width n_p,
    the other terminal's stream. `decay` marks the weight matrices, the only
    tensors under weight decay. `init` is "xavier" (uniform in +-sqrt(6 /
    (fan_in + fan_out))), "phase" (uniform in [0, 2 pi)) or a constant fill.
    Each `rx_bn{i}.gamma` row also names the running statistics of its
    batchnorm layer (see ParamStore).
    """
    rows = []
    for q, term in enumerate(config.geometry.terminals, 1):
        n_q, n_p = config.n_bits[q - 1], config.n_bits[2 - q]
        fan_in = n_q
        for i, width in enumerate((n_q, n_q, 2 * term.tx_antennas)):
            rows += [(f"t{q}.tx.w{i}", (fan_in, width), True, "xavier"),
                     (f"t{q}.tx.b{i}", (width,), False, BIAS_INIT)]
            fan_in = width
        rows += [(f"t{q}.theta{layer}", (term.tx_units,), False, "phase")
                 for layer in range(1, term.tx_layers + 1)]
        rows += [(f"t{q}.xi{layer}", (term.rx_units,), False, "phase")
                 for layer in range(1, term.rx_layers + 1)]
        fan_in = 2 * term.rx_antennas
        for i, width in enumerate((n_p, n_p)):
            rows += [(f"t{q}.rx.w{i}", (fan_in, width), True, "xavier"),
                     (f"t{q}.rx.b{i}", (width,), False, BIAS_INIT)]
            fan_in = width
        for i, width in enumerate((2 * term.rx_antennas, n_p, n_p)):
            rows += [(f"t{q}.rx_bn{i}.gamma", (width,), False, 1.0),
                     (f"t{q}.rx_bn{i}.beta", (width,), False, 0.0)]
    if config.trainable_power:
        rows.append(("power.logits", (sum(config.geometry.tx_antennas),), False, 0.0))
    return rows


class ParamStore:
    """All of one run's state, laid out by its table, or that of an
    ensemble of R runs stacked on a leading run axis.

    - `flat`: every trainable, in table order; `tensors` are views into it.
    - `stats`: the batchnorm running means and variances, one (mean, var)
      pair per `rx_bn{i}.gamma` row, in table order; `running` maps each
      layer `t{q}.rx_bn{i}` to its pair of views.
    - `m`, `v`: AdamW's moments in `flat`'s layout; `step`: its step count.

    One run holds `flat` (P,) and an int `step`; an ensemble (`stack`) holds
    (R, P), (R, S) and (R,) steps, each view with the leading R axis, and
    `run(r)` copies one run out. `copy` copies all of it; `named_arrays` is
    the checkpoint's view of one run.
    `layers(q, kind)` groups terminal q's rows of the table, once, into the
    layers the forward walks.
    """

    def __init__(self, table, flat=None, stats=None, m=None, v=None, step=0):
        self.table = table
        self._spans, offset = {}, 0
        for name, shape, _, _ in table:
            self._spans[name] = slice(offset, offset + math.prod(shape))
            offset += math.prod(shape)
        self.flat = np.zeros(offset) if flat is None else flat
        self.m = np.zeros(offset) if m is None else m
        self.v = np.zeros(offset) if v is None else v
        self.step = step
        self.tensors = {name: ag.Tensor(view, requires_grad=True, name=name)
                        for name, view in self.views(self.flat).items()}
        bns = [(name.removesuffix(".gamma"), shape[0])
               for name, shape, _, _ in table if name.endswith(".gamma")]
        self.stats = np.zeros(2 * sum(w for _, w in bns)) if stats is None else stats
        self.running, offset = {}, 0
        for bn, w in bns:
            self.running[bn] = (self.stats[..., offset:offset + w],
                                self.stats[..., offset + w:offset + 2 * w])
            offset += 2 * w
        if stats is None:
            for _, var in self.running.values():
                var[...] = 1.0

        def rows(group, prefix):
            return [t for name, t in group.items() if name.startswith(prefix)]
        self._layers = {}
        for q in (1, 2):
            tx, rx, bn = (rows(self.tensors, f"t{q}.{kind}")
                          for kind in ("tx.", "rx.", "rx_bn"))
            self._layers.update({
                (q, "tx"): list(zip(tx[::2], tx[1::2], strict=True)),
                (q, "theta"): rows(self.tensors, f"t{q}.theta"),
                (q, "xi"): rows(self.tensors, f"t{q}.xi"),
                (q, "rx"): list(zip(rx[::2], rx[1::2], strict=True)),
                (q, "bn"): list(zip(bn[::2], bn[1::2], rows(self.running, f"t{q}."),
                                    strict=True)),
            })

    @classmethod
    def stack(cls, stores):
        """The ensemble of copies of single-run `stores`, run r in row r."""
        buffers = (np.stack([getattr(s, b) for s in stores]) for b in ("flat", "stats", "m", "v"))
        return cls(stores[0].table, *buffers, np.array([s.step for s in stores]))

    def run(self, r):
        """A single-run copy of run r of an ensemble."""
        return ParamStore(self.table, self.flat[r].copy(), self.stats[r].copy(),
                          self.m[r].copy(), self.v[r].copy(), int(self.step[r]))

    def views(self, buffer):
        """{name: view} of a buffer in `flat`'s layout, in table order."""
        return {name: buffer[..., self._spans[name]].reshape(buffer.shape[:-1] + shape)
                for name, shape, _, _ in self.table}

    def __getitem__(self, name):
        return self.tensors[name]

    @property
    def power_logits(self):
        return self.tensors.get("power.logits")

    def layers(self, q, kind):
        """Terminal q's layers of one kind, in table order: the dense layers
        of the TX-DNN ("tx") or RX-DNN ("rx") as (w, b), the phase vectors of
        the TX ("theta") or RX ("xi") stack from layer 1, and the RX-DNN's
        batchnorm layers ("bn") as (gamma, beta, (running mean, running var))."""
        return self._layers[q, kind]

    def trainables(self):
        return list(self.tensors.values())

    def named_arrays(self):
        """{name: view} of the whole run state in checkpoint file order: the
        trainables in table order, each batchnorm layer's running mean and
        var, then the `opt.m.` / `opt.v.` moment pairs sorted by name."""
        arrays = self.views(self.flat)
        for bn, (mean, var) in self.running.items():
            arrays[f"{bn}.running_mean"] = mean
            arrays[f"{bn}.running_var"] = var
        m, v = self.views(self.m), self.views(self.v)
        for name in sorted(m):
            arrays[f"opt.m.{name}"] = m[name]
            arrays[f"opt.v.{name}"] = v[name]
        return arrays

    def flat_grad(self):
        """Every tensor's gradient in buffer layout; zeros where none arrived."""
        rows = self.flat.shape[:-1] + (-1,)
        return np.concatenate([(t.grad if t.grad is not None else np.zeros(t.shape))
                               .reshape(rows) for t in self.tensors.values()], axis=-1)

    def copy(self):
        return ParamStore(self.table, self.flat.copy(), self.stats.copy(),
                          self.m.copy(), self.v.copy(), self.step)


def init_params(config, rng):
    """Xavier weights, small positive biases, uniform [0, 2 pi) phases,
    drawn from `rng` in table order."""
    table = param_table(config)
    params = ParamStore(table)
    for name, shape, _, init in table:
        if init == "xavier":
            fan_in, fan_out = shape
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            params[name].data[...] = rng.uniform(-lim, lim, shape)
        elif init == "phase":
            params[name].data[...] = rng.uniform(0.0, 2.0 * np.pi, shape)
        else:
            params[name].data[...] = init
    return params


# ---------------------------------------------------------------------------
# forward stages
# ---------------------------------------------------------------------------

def tx_dnn_forward(bits, params, q):
    """Terminal q's linear+relu layers mapping a bit block to the raw
    antenna pairs."""
    x = bits if isinstance(bits, ag.Tensor) else ag.Tensor(np.asarray(bits, dtype=float))
    for w, b in params.layers(q, "tx"):
        x = ag.dense_relu(x, w, b)
    return x


def allocate_power(power_dbm, geom, params):
    """Per-antenna linear transmit powers for both terminals, (B, A_q) each.

    Default split: half the budget per terminal, uniform across its antennas.
    With trainable allocation the budget is shared through a softmax over all
    transmit antennas, so the total still sums to the per-sample budget.
    """
    p_lin = ch.dbm_to_watt(np.asarray(power_dbm, dtype=float))[..., None]
    a1, a2 = geom.tx_antennas
    if params.power_logits is None:
        p1 = np.broadcast_to(p_lin / (2.0 * a1), p_lin.shape[:-1] + (a1,))
        p2 = np.broadcast_to(p_lin / (2.0 * a2), p_lin.shape[:-1] + (a2,))
        return ag.Tensor(p1.copy()), ag.Tensor(p2.copy())
    share = ag.softmax(params.power_logits, axis=-1)
    full = ag.hadamard(ag.Tensor(p_lin), share)
    return ag.slice_axis(full, -1, 0, a1), ag.slice_axis(full, -1, a1, a2)


def power_control(raw, per_antenna_power):
    """Fixed block enforcing the transmit power budget.

    Each complex antenna stream is normalized to unit mean power over the
    batch, then scaled by the square root of its allocated power, so the
    batch-mean total transmit power equals the (per-sample) budget.
    """
    out, stream_power = ag.normalize_streams(raw, per_antenna_power, POWER_EPS)
    if np.any(stream_power < POWER_EPS):
        warnings.warn("all-zero antenna stream in power control",
                      RuntimeWarning, stacklevel=2)
    return out


def tx_sim_forward(x, factors, thetas):
    """TX stack on complex rows: x V_1^T Phi_1 ... V_L^T Phi_L.

    From the identity on the antennas this composes T^T, with
    T = Phi_L V_L ... Phi_1 V_1 mapping the antennas to the last layer.
    """
    for v, theta in zip(factors, thetas, strict=True):
        x = ag.phase_shift(ag.matmul(x, v.T), theta)
    return x


def rx_sim_forward(y, factors, xis):
    """RX stack on complex rows: phase layer K first, transmission toward
    the antennas, y Psi_K V_K ... Psi_1 V_1 = y R^T with
    R = V_1^T Psi_1 ... V_K^T Psi_K.

    `factors` are the stack's outward factors V_k (wavefield.stack_factors);
    by reciprocity V_k^T carries layer k back to layer k-1.
    """
    for v, xi in zip(reversed(factors), reversed(xis), strict=True):
        y = ag.matmul(ag.phase_shift(y, xi), v)
    return y


def channel_layer(t1, t2, realization):
    """Arrivals at both receivers, one row per joint transmit basis vector.

    Receiver q sees G_1q s_1 + G_2q s_2; with the TX operators T_p^T as
    rows its operator is [T_1^T G_1q^T ; T_2^T G_2q^T] (A1 + A2 rows). A
    fixed, non-trainable block; receiver noise is injected after the
    receive stack (see Emnn.forward).
    """
    return tuple(ag.concat([ag.matmul(t1, realization.link(1, q).swapaxes(-1, -2)),
                            ag.matmul(t2, realization.link(2, q).swapaxes(-1, -2))], axis=-2)
                 for q in (1, 2))


def rx_dnn_forward(y, params, q, training):
    """Terminal q's batchnorm / linear+relu alternation: one batchnorm on the
    input and one after each linear+relu layer, the last giving the logits
    of the decoded bits."""
    first, *rest = params.layers(q, "bn")
    h = ag.batchnorm(y, *first, training)
    for (w, b), bn in zip(params.layers(q, "rx"), rest, strict=True):
        h = ag.batchnorm(ag.dense_relu(h, w, b), *bn, training)
    return h


def hard_decision(logits):
    """Threshold logits at 0; exact ties map to 1."""
    logits = logits.data if isinstance(logits, ag.Tensor) else np.asarray(logits)
    return (logits >= 0.0).astype(np.int64)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class Emnn:
    """Config + fixed propagation factors + trainable parameters."""

    def __init__(self, config, params=None, rng=None):
        self.config = config
        geom = config.geometry
        # the per-terminal counts under the name `arch`, for the benchmark
        # workloads' `model.arch.rx_antennas`; nothing in simfd reads it
        self.arch = geom
        self.tx_factors = [wf.stack_factors(geom, *t.tx_stack) for t in geom.terminals]
        self.rx_factors = [wf.stack_factors(geom, *t.rx_stack) for t in geom.terminals]
        if params is None:
            if rng is None:
                raise ArchitectureError("either params or an rng is required")
            params = init_params(config, rng)
        self.params = params
        # fixed receiver front-end gain: measure the antenna signal in units
        # of the noise standard deviation so batchnorm sees O(1) variances
        noise_var = ch.dbm_to_watt(config.channel.noise_dbm)
        self.rx_scale = 1.0 / np.sqrt(noise_var) if noise_var > 0 else 1.0

    def check_realization(self, realization):
        geom = self.config.geometry
        for p, q in ch.LINK_ORDER:
            expect = (math.prod(geom.terminal(q).channel_grids[1]),
                      math.prod(geom.terminal(p).channel_grids[0]))
            got = realization.link(p, q).shape[-2:]
            if got != expect:
                raise ArchitectureError(
                    f"link ({p},{q}) shape {got} does not match model {expect}")

    def forward(self, bits, power_dbm, realization, noise_override, training=True):
        """Logits of the full bit block, aligned with [b1 | b2].

        The TX-DNNs and power control act on the batch. tx stack ->
        channel -> rx stack compose, per receiver q, the transposed
        antenna-to-antenna operator H_q^T (see the module docstring), which
        maps the batch's joint complex signal (x1, x2) to the receive
        antennas in one matmul, which one `receive` node fuses with the
        receiver noise, the front-end gain and the move to paired rows for
        the RX-DNNs.

        The forward draws nothing: `noise_override` is the receiver noise,
        one complex array per terminal (channel.receiver_noise draws it).
        With a stacked store (ParamStore.stack), bits, powers, noise and
        realization links carry the leading run axis and so does the output.
        """
        self.check_realization(realization)
        bits = np.asarray(bits, dtype=float)
        geom = self.config.geometry
        n1 = self.config.n_bits[0]

        joint, sent = [], []
        p_alloc = allocate_power(power_dbm, geom, self.params)
        for q, p_q in zip((1, 2), p_alloc):
            block = bits[..., :n1] if q == 1 else bits[..., n1:]
            raw = tx_dnn_forward(block, self.params, q)
            joint.append(ag.to_complex(power_control(raw, p_q)))
            eye = np.eye(geom.terminal(q).tx_antennas, dtype=complex)
            sent.append(tx_sim_forward(eye, self.tx_factors[q - 1],
                                       self.params.layers(q, "theta")))
        joint = ag.concat(joint, axis=-1)
        fields = channel_layer(sent[0], sent[1], realization)

        received = []
        for q, f_q in zip((1, 2), fields):
            h_q = rx_sim_forward(f_q, self.rx_factors[q - 1],
                                 self.params.layers(q, "xi"))
            r_q = ag.receive(joint, h_q, noise_override[q - 1], self.rx_scale)
            received.append(rx_dnn_forward(r_q, self.params, q, training))
        # terminal 2 outputs the estimate of stream 1 and vice versa
        return ag.concat([received[1], received[0]], axis=-1)


def export_phase_table(params):
    """Hardware-facing plain-text table: terminal, stack, layer, unit, phase."""
    lines = ["# terminal stack layer unit phase_rad"]
    for q in (1, 2):
        for side, stack in (("tx", "theta"), ("rx", "xi")):
            for layer, phase in enumerate(params.layers(q, stack), 1):
                for unit, value in enumerate(wf.wrap_phase(phase.data)):
                    lines.append(f"{q} {side} {layer} {unit} {value:.12f}")
    return "\n".join(lines) + "\n"
