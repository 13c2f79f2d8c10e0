"""End-to-end network: TX-DNN, power control, TX/RX stack layers, channel,
RX-DNN, for both terminals in one differentiable graph.

Terminal q transmits its own bit stream and decodes the other terminal's;
the concatenated soft output is aligned with the concatenated input
[b1 | b2]. The digital networks work on paired real rows [re | im]; the
stacks and the channel are complex128 (see autograd). Propagation and
channel matrices enter the graph as fixed constants; the trainable state is
the DNN weights, the per-layer phase vectors, batchnorm scale/shift, and
(optionally) the power allocation.

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
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import channel as ch
from . import wavefield as wf

POWER_EPS = 1e-12


class ArchitectureError(ValueError):
    """Configuration and network structure disagree."""


@dataclass(frozen=True)
class EmnnArchitecture:
    """Layer-width schedule of the full network for one configuration."""

    n_bits: tuple
    tx_antennas: tuple
    rx_antennas: tuple
    tx_units: tuple
    rx_units: tuple
    tx_layers: tuple
    rx_layers: tuple
    tx_channel: tuple    # channel-facing element counts per terminal
    rx_channel: tuple

    def other(self, q):
        return 2 if q == 1 else 1

    def tx_widths(self, q):
        """Output widths of the three TX-DNN linear layers at terminal q."""
        n = self.n_bits[q - 1]
        return (n, n, 2 * self.tx_antennas[q - 1])

    def sim_tx_width(self, q):
        return 2 * self.tx_units[q - 1]

    def sim_rx_width(self, q):
        return 2 * self.rx_units[q - 1]

    def channel_width(self, q):
        """Paired width of the field arriving at terminal q's receive side."""
        return 2 * self.rx_channel[q - 1]

    def rx_input(self, q):
        return 2 * self.rx_antennas[q - 1]

    def decoded_bits(self, q):
        """Terminal q decodes the other terminal's stream."""
        return self.n_bits[self.other(q) - 1]

    def rx_widths(self, q):
        n = self.decoded_bits(q)
        return (n, n)

    def layer_table(self, q):
        """(module, layer, width) rows of terminal q's physical pipeline."""
        rows = [("tx-dnn", "input", self.n_bits[q - 1])]
        for i, w in enumerate(self.tx_widths(q), 1):
            rows.append(("tx-dnn", f"linear_relu_{i}", w))
        rows.append(("tx-dnn", "power_control", 2 * self.tx_antennas[q - 1]))
        for layer in range(1, self.tx_layers[q - 1] + 1):
            rows.append(("tx-stack", f"transmission_{layer}", self.sim_tx_width(q)))
            rows.append(("tx-stack", f"metasurface_{layer}", self.sim_tx_width(q)))
        rows.append(("channel", "channel", self.channel_width(q)))
        for layer in range(self.rx_layers[q - 1], 0, -1):
            rows.append(("rx-stack", f"metasurface_{layer}", self.sim_rx_width(q)))
            width = self.rx_input(q) if layer == 1 else self.sim_rx_width(q)
            rows.append(("rx-stack", f"transmission_{layer}", width))
        rows.append(("rx-dnn", "batchnorm_1", self.rx_input(q)))
        n = self.decoded_bits(q)
        rows += [("rx-dnn", "linear_relu_1", n), ("rx-dnn", "batchnorm_2", n),
                 ("rx-dnn", "linear_relu_2", n), ("rx-dnn", "batchnorm_3", n),
                 ("rx-dnn", "sigmoid", n), ("rx-dnn", "output", n)]
        return rows


def build(config):
    """Derive and validate the architecture for a SystemConfig."""
    config.validate()
    geom = config.geometry
    t1, t2 = geom.terminals
    arch = EmnnArchitecture(
        n_bits=tuple(config.n_bits),
        tx_antennas=(t1.tx_antennas, t2.tx_antennas),
        rx_antennas=(t1.rx_antennas, t2.rx_antennas),
        tx_units=(t1.tx_units, t2.tx_units),
        rx_units=(t1.rx_units, t2.rx_units),
        tx_layers=(t1.tx_layers, t2.tx_layers),
        rx_layers=(t1.rx_layers, t2.rx_layers),
        tx_channel=tuple(math.prod(t.channel_grids[0]) for t in geom.terminals),
        rx_channel=tuple(math.prod(t.channel_grids[1]) for t in geom.terminals),
    )
    for q in (1, 2):
        for module, layer, width in arch.layer_table(q):
            if width < 1:
                raise ArchitectureError(
                    f"terminal {q}: {module}/{layer} has width {width}")
    return arch


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class TerminalParams:
    """Trainable state of one terminal."""

    def __init__(self):
        self.tx_w = []
        self.tx_b = []
        self.theta = []      # one vector per TX stack layer
        self.xi = []         # one vector per RX stack layer
        self.rx_w = []
        self.rx_b = []
        self.rx_gamma = []
        self.rx_beta = []
        self.rx_bn = []      # BatchNormState per batchnorm layer


class EmnnParams:
    """All trainable tensors plus batchnorm running statistics."""

    def __init__(self, terminals, power_logits=None):
        self.terminals = terminals
        self.power_logits = power_logits

    def terminal(self, q):
        return self.terminals[q - 1]

    def named_tensors(self):
        out = {}
        for q in (1, 2):
            tp = self.terminals[q - 1]
            for i, (w, b) in enumerate(zip(tp.tx_w, tp.tx_b)):
                out[f"t{q}.tx.w{i}"] = w
                out[f"t{q}.tx.b{i}"] = b
            for i, th in enumerate(tp.theta, 1):
                out[f"t{q}.theta{i}"] = th
            for i, xi in enumerate(tp.xi, 1):
                out[f"t{q}.xi{i}"] = xi
            for i, (w, b) in enumerate(zip(tp.rx_w, tp.rx_b)):
                out[f"t{q}.rx.w{i}"] = w
                out[f"t{q}.rx.b{i}"] = b
            for i, (g, b) in enumerate(zip(tp.rx_gamma, tp.rx_beta)):
                out[f"t{q}.rx_bn{i}.gamma"] = g
                out[f"t{q}.rx_bn{i}.beta"] = b
        if self.power_logits is not None:
            out["power.logits"] = self.power_logits
        return out

    def named_states(self):
        out = {}
        for q in (1, 2):
            for i, st in enumerate(self.terminals[q - 1].rx_bn):
                out[f"t{q}.rx_bn{i}"] = st
        return out

    def trainables(self):
        return list(self.named_tensors().values())

    def copy(self):
        clone = EmnnParams((TerminalParams(), TerminalParams()),
                           None if self.power_logits is None else
                           _clone(self.power_logits))
        for src, dst in zip(self.terminals, clone.terminals):
            dst.tx_w = [_clone(t) for t in src.tx_w]
            dst.tx_b = [_clone(t) for t in src.tx_b]
            dst.theta = [_clone(t) for t in src.theta]
            dst.xi = [_clone(t) for t in src.xi]
            dst.rx_w = [_clone(t) for t in src.rx_w]
            dst.rx_b = [_clone(t) for t in src.rx_b]
            dst.rx_gamma = [_clone(t) for t in src.rx_gamma]
            dst.rx_beta = [_clone(t) for t in src.rx_beta]
            dst.rx_bn = [st.copy() for st in src.rx_bn]
        return clone


def _clone(t):
    out = ag.Tensor(t.data.copy(), requires_grad=t.requires_grad,
                    name=t.name, decay=t.decay)
    return out


def xavier_limit(fan_in, fan_out):
    return np.sqrt(6.0 / (fan_in + fan_out))


# linear-layer biases start slightly positive: with zero biases and binary
# inputs, relu pre-activations sit exactly on their kink at initialization,
# whole layers die, and distinct bit patterns collapse onto one constellation
# point that gradients can never separate again
BIAS_INIT = 0.3


def init_params(arch, rng, trainable_power=False):
    """Xavier weights, small positive biases, uniform [0, 2 pi) phases."""
    terminals = (TerminalParams(), TerminalParams())
    for q in (1, 2):
        tp = terminals[q - 1]
        fan_in = arch.n_bits[q - 1]
        for i, width in enumerate(arch.tx_widths(q)):
            lim = xavier_limit(fan_in, width)
            tp.tx_w.append(ag.Tensor(rng.uniform(-lim, lim, (fan_in, width)),
                                     requires_grad=True, name=f"t{q}.tx.w{i}",
                                     decay=True))
            tp.tx_b.append(ag.Tensor(np.full(width, BIAS_INIT), requires_grad=True,
                                     name=f"t{q}.tx.b{i}"))
            fan_in = width
        for layer in range(1, arch.tx_layers[q - 1] + 1):
            tp.theta.append(ag.Tensor(rng.uniform(0.0, 2.0 * np.pi, arch.tx_units[q - 1]),
                                      requires_grad=True, name=f"t{q}.theta{layer}"))
        for layer in range(1, arch.rx_layers[q - 1] + 1):
            tp.xi.append(ag.Tensor(rng.uniform(0.0, 2.0 * np.pi, arch.rx_units[q - 1]),
                                   requires_grad=True, name=f"t{q}.xi{layer}"))
        fan_in = arch.rx_input(q)
        widths = arch.rx_widths(q)
        bn_widths = (arch.rx_input(q),) + widths
        for i, width in enumerate(bn_widths):
            tp.rx_gamma.append(ag.Tensor(np.ones(width), requires_grad=True,
                                         name=f"t{q}.rx_bn{i}.gamma"))
            tp.rx_beta.append(ag.Tensor(np.zeros(width), requires_grad=True,
                                        name=f"t{q}.rx_bn{i}.beta"))
            tp.rx_bn.append(ag.BatchNormState(width))
        for i, width in enumerate(widths):
            lim = xavier_limit(fan_in, width)
            tp.rx_w.append(ag.Tensor(rng.uniform(-lim, lim, (fan_in, width)),
                                     requires_grad=True, name=f"t{q}.rx.w{i}",
                                     decay=True))
            tp.rx_b.append(ag.Tensor(np.full(width, BIAS_INIT), requires_grad=True,
                                     name=f"t{q}.rx.b{i}"))
            fan_in = width
    logits = None
    if trainable_power:
        total = arch.tx_antennas[0] + arch.tx_antennas[1]
        logits = ag.Tensor(np.zeros(total), requires_grad=True, name="power.logits")
    return EmnnParams(terminals, logits)


# ---------------------------------------------------------------------------
# forward stages
# ---------------------------------------------------------------------------

def tx_dnn_forward(bits, tp):
    """Three linear+relu layers mapping a bit block to the raw antenna pairs."""
    x = bits if isinstance(bits, ag.Tensor) else ag.Tensor(np.asarray(bits, dtype=float))
    for w, b in zip(tp.tx_w, tp.tx_b):
        x = ag.relu(ag.add(ag.matmul(x, w), b))
    return x


def allocate_power(power_dbm, arch, params):
    """Per-antenna linear transmit powers for both terminals, (B, A_q) each.

    Default split: half the budget per terminal, uniform across its antennas.
    With trainable allocation the budget is shared through a softmax over all
    transmit antennas, so the total still sums to the per-sample budget.
    """
    p_lin = ch.dbm_to_watt(np.asarray(power_dbm, dtype=float)).reshape(-1, 1)
    a1, a2 = arch.tx_antennas
    if params.power_logits is None:
        p1 = np.broadcast_to(p_lin / (2.0 * a1), (p_lin.shape[0], a1))
        p2 = np.broadcast_to(p_lin / (2.0 * a2), (p_lin.shape[0], a2))
        return ag.Tensor(p1.copy()), ag.Tensor(p2.copy())
    share = ag.softmax(params.power_logits, axis=-1)
    full = ag.hadamard(ag.Tensor(p_lin), share)
    return ag.slice_axis(full, 1, 0, a1), ag.slice_axis(full, 1, a1, a2)


def power_control(raw, per_antenna_power):
    """Fixed block enforcing the transmit power budget.

    Each complex antenna stream is normalized to unit mean power over the
    batch, then scaled by the square root of its allocated power, so the
    batch-mean total transmit power equals the (per-sample) budget.
    """
    n = raw.data.shape[1] // 2
    batch = raw.data.shape[0]
    re = ag.slice_axis(raw, 1, 0, n)
    im = ag.slice_axis(raw, 1, n, n)
    stream_power = ag.scale(ag.reduce_sum(
        ag.add(ag.hadamard(re, re), ag.hadamard(im, im)),
        axis=0, keepdims=True), 1.0 / batch)
    if np.any(stream_power.data < POWER_EPS):
        warnings.warn("all-zero antenna stream in power control",
                      RuntimeWarning, stacklevel=2)
    inv_norm = ag.pow_scalar(ag.add(ag.pow_scalar(stream_power, 0.5), POWER_EPS), -1.0)
    amp = ag.pow_scalar(per_antenna_power, 0.5)
    per_stream = ag.hadamard(amp, inv_norm)
    return ag.hadamard(raw, ag.concat([per_stream, per_stream], axis=1))


def tx_sim_forward(x, factors, thetas):
    """TX stack on complex rows: x V_1^T Phi_1 ... V_L^T Phi_L.

    From the identity on the antennas this composes T^T, with
    T = Phi_L V_L ... Phi_1 V_1 mapping the antennas to the last layer.
    """
    for v, theta in zip(factors, thetas):
        x = ag.phase_shift(ag.matmul(x, v.T), theta)
    return x


def rx_sim_forward(y, factors, xis):
    """RX stack on complex rows: phase layer K first, transmission toward
    the antennas, y Psi_K V_K ... Psi_1 V_1 = y R^T with
    R = V_1^T Psi_1 ... V_K^T Psi_K.

    `factors` are the stack's outward factors V_k (wavefield.stack_factors);
    by reciprocity V_k^T carries layer k back to layer k-1.
    """
    for v, xi in zip(reversed(factors), reversed(xis)):
        y = ag.matmul(ag.phase_shift(y, xi), v)
    return y


def channel_layer(t1, t2, realization):
    """Arrivals at both receivers, one row per joint transmit basis vector.

    Receiver q sees G_1q s_1 + G_2q s_2; with the TX operators T_p^T as
    rows its operator is [T_1^T G_1q^T ; T_2^T G_2q^T] (A1 + A2 rows). A
    fixed, non-trainable block; receiver noise is injected after the
    receive stack (see Emnn.forward).
    """
    return tuple(ag.concat([ag.matmul(t1, realization.link(1, q).T),
                            ag.matmul(t2, realization.link(2, q).T)], axis=0)
                 for q in (1, 2))


def rx_dnn_forward(y, tp, training):
    """Batchnorm / linear+relu alternation closed by a sigmoid."""
    h = ag.batchnorm(y, tp.rx_gamma[0], tp.rx_beta[0], tp.rx_bn[0], training)
    h = ag.relu(ag.add(ag.matmul(h, tp.rx_w[0]), tp.rx_b[0]))
    h = ag.batchnorm(h, tp.rx_gamma[1], tp.rx_beta[1], tp.rx_bn[1], training)
    h = ag.relu(ag.add(ag.matmul(h, tp.rx_w[1]), tp.rx_b[1]))
    h = ag.batchnorm(h, tp.rx_gamma[2], tp.rx_beta[2], tp.rx_bn[2], training)
    return ag.sigmoid(h)


def hard_decision(soft):
    """Threshold soft bits at 0.5; exact ties map to 1."""
    soft = soft.data if isinstance(soft, ag.Tensor) else np.asarray(soft)
    return (soft >= 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class Emnn:
    """Architecture + fixed propagation factors + trainable parameters."""

    def __init__(self, config, params=None, rng=None):
        self.config = config
        self.arch = build(config)
        geom = config.geometry
        self.tx_factors = [wf.stack_factors(geom, *t.tx_stack) for t in geom.terminals]
        self.rx_factors = [wf.stack_factors(geom, *t.rx_stack) for t in geom.terminals]
        if params is None:
            if rng is None:
                raise ArchitectureError("either params or an rng is required")
            params = init_params(self.arch, rng, config.trainable_power)
        self.params = params
        # fixed receiver front-end gain: measure the antenna signal in units
        # of the noise standard deviation so batchnorm sees O(1) variances
        noise_var = ch.dbm_to_watt(config.channel.noise_dbm)
        self.rx_scale = 1.0 / np.sqrt(noise_var) if noise_var > 0 else 1.0

    def check_realization(self, realization):
        for p, q in ch.LINK_ORDER:
            expect = (self.arch.rx_channel[q - 1], self.arch.tx_channel[p - 1])
            got = realization.link(p, q).shape
            if got != expect:
                raise ArchitectureError(
                    f"link ({p},{q}) shape {got} does not match model {expect}")

    def forward(self, bits, power_dbm, realization, rng=None, training=True,
                noise_override=None):
        """Soft estimates of the full bit block, aligned with [b1 | b2].

        The TX-DNNs and power control act on the batch. tx stack ->
        channel -> rx stack compose, per receiver q, the transposed
        antenna-to-antenna operator H_q^T (see the module docstring), which
        maps the batch's joint complex signal (x1, x2) to the receive
        antennas in one matmul. Receiver noise, the front-end gain and the
        RX-DNNs then act on the paired batch.

        `noise_override` takes pre-drawn complex noise (one array per
        terminal) so a caller can freeze the whole forward for gradient
        checks; otherwise receiver noise is drawn from `rng`.
        """
        self.check_realization(realization)
        bits = np.asarray(bits, dtype=float)
        n1 = self.arch.n_bits[0]

        joint, sent = [], []
        p_alloc = allocate_power(power_dbm, self.arch, self.params)
        for q, p_q in zip((1, 2), p_alloc):
            tp = self.params.terminal(q)
            block = bits[:, :n1] if q == 1 else bits[:, n1:]
            raw = tx_dnn_forward(block, tp)
            joint.append(ag.to_complex(power_control(raw, p_q)))
            eye = np.eye(self.arch.tx_antennas[q - 1], dtype=complex)
            sent.append(tx_sim_forward(eye, self.tx_factors[q - 1], tp.theta))
        joint = ag.concat(joint, axis=1)
        fields = channel_layer(sent[0], sent[1], realization)

        received = []
        for q, f_q in zip((1, 2), fields):
            tp = self.params.terminal(q)
            h_q = rx_sim_forward(f_q, self.rx_factors[q - 1], tp.xi)
            r_q = ag.to_pair(ag.matmul(joint, h_q))
            if noise_override is not None:
                n_q = noise_override[q - 1]
            elif rng is None:
                raise ArchitectureError("no rng for the receiver noise")
            else:
                n_q = ch.draw_noise(ch.dbm_to_watt(self.config.channel.noise_dbm),
                                    (bits.shape[0], self.arch.rx_antennas[q - 1]),
                                    rng)
            r_q = ag.add(r_q, wf.complex_to_pair(n_q))
            received.append(rx_dnn_forward(ag.scale(r_q, self.rx_scale), tp,
                                           training))
        # terminal 2 outputs the estimate of stream 1 and vice versa
        return ag.concat([received[1], received[0]], axis=1)


def export_phase_table(params):
    """Hardware-facing plain-text table: terminal, stack, layer, unit, phase."""
    lines = ["# terminal stack layer unit phase_rad"]
    for q in (1, 2):
        tp = params.terminal(q)
        for layer, th in enumerate(tp.theta, 1):
            for unit, value in enumerate(wf.wrap_phase(th.data)):
                lines.append(f"{q} tx {layer} {unit} {value:.12f}")
        for layer, xi in enumerate(tp.xi, 1):
            for unit, value in enumerate(wf.wrap_phase(xi.data)):
                lines.append(f"{q} rx {layer} {unit} {value:.12f}")
    return "\n".join(lines) + "\n"
