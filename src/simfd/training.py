"""Loss, optimizer, batch generation, the base/fine-tune
transfer-learning workflow, and checkpoint persistence.

Base training redraws the channel every batch (statistical operation);
fine-tuning freezes one realization and continues from the base model.
Checkpoints are a versioned binary container (JSON header + named float64
tensors, little endian) that round-trips byte-identically; the per-epoch
history is additionally emitted as CSV next to the checkpoint.
"""

import io
import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import autograd as ag
from . import emnn
from .channel import ChannelRealization, ChannelSource, derive_seed, receiver_noise
from .config import config_from_dict

CHECKPOINT_MAGIC = b"SIMFDCKP"
CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradient encountered; `runs` lists the runs of an
    ensemble at fault."""

    def __init__(self, message, runs):
        super().__init__(message)
        self.runs = runs


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


# ---------------------------------------------------------------------------
# loss / optimizer / schedule
# ---------------------------------------------------------------------------

def bce_loss(bits, logits):
    """Binary cross-entropy of the RX-DNNs' logits, summed over bits and
    averaged over the batch; one loss per run for a stack of runs (R, B, n).
    One node (autograd.bce_with_logits); a bit block of another shape than
    the logits raises GraphError."""
    return ag.bce_with_logits(logits, bits)


def _bias(beta, step):
    """Adam's bias correction 1 - beta**step; per-run steps (R,) give a column
    (R, 1), by Python's pow (numpy's vector power can miss it by an ulp)."""
    if np.ndim(step) == 0:
        return 1.0 - beta ** step
    return np.array([[1.0 - beta ** int(s)] for s in step])


def adamw_step(data, grad, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8,
               weight_decay=0.0):
    """One decoupled-weight-decay Adam update, in place on `data`, `m`, `v`;
    with per-run steps (R,), the arrays hold one run per row. `weight_decay`
    is one rate or one per element of a row."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / _bias(beta1, step)
    v_hat = v / _bias(beta2, step)
    update = m_hat / (np.sqrt(v_hat) + eps)
    data -= lr * (update + weight_decay * data)


class AdamW:
    """AdamW over a ParamStore, one vectorized update per step.

    Steps the store's flat buffer, its moments `m` and `v` and its step count
    in place; an ensemble store steps all its runs at once. Weight decay
    covers the table's decayed rows (the weight matrices), read once as one
    rate per element of the buffer; phase vectors, biases and batchnorm
    parameters are excluded from it. A non-finite gradient anywhere raises
    TrainingDiverged, naming the runs at fault, before any of the store
    moves. `params` may be replaced by a store of the same table.
    """

    def __init__(self, params, weight_decay=1e-4):
        self.params = params
        table = params.table
        self._decay = np.repeat([weight_decay if decay else 0.0 for _, _, decay, _ in table],
                                [math.prod(shape) for _, shape, _, _ in table])

    def step(self, lr):
        params = self.params
        grad = params.flat_grad()
        finite = np.isfinite(grad).all(axis=-1)
        if not finite.all():
            name = next(name for name, t in params.tensors.items()
                        if t.grad is not None and not np.isfinite(t.grad).all())
            raise TrainingDiverged(f"non-finite gradient in {name}",
                                   np.flatnonzero(~finite))
        # rebound, not incremented in place: copies may share a run's steps
        params.step = params.step + 1
        adamw_step(params.flat, grad, params.m, params.v, params.step, lr,
                   weight_decay=self._decay)


def lr_schedule(epoch, train_config):
    """Stepped decay: lr0 * decay^(epoch // interval), floored."""
    tc = train_config
    lr = tc.learning_rate * tc.lr_decay ** (epoch // tc.lr_decay_interval)
    return max(lr, tc.lr_floor)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass
class BitBlock:
    """One batch: bit rows [b1 | b2] plus the per-sample power budget (dBm)."""

    bits: np.ndarray
    power_dbm: np.ndarray


def sample_batch(rng, config):
    """Uniform i.i.d. bits; per-sample power from a scaled Beta distribution."""
    tc = config.training
    bits = rng.integers(0, 2, (tc.batch_size, config.total_bits)).astype(float)
    u = rng.beta(tc.power_alpha, tc.power_beta, tc.batch_size)
    power = tc.power_min_dbm + (tc.power_max_dbm - tc.power_min_dbm) * u
    return BitBlock(bits, power)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """Snapshot of a training run: config, run state, rng, history.

    `params` is the whole run state (emnn.ParamStore): the trainables, the
    batchnorm running statistics and the optimizer's moments and step count.
    """

    config: object
    params: object
    rng_state: dict
    history: list           # (epoch, loss, lr) rows
    epoch: int
    diverged: bool = False

    def final_loss(self):
        return self.history[-1][1] if self.history else float("nan")


def save_checkpoint(ck, path):
    """Write the checkpoint container plus `<stem>.history.csv` alongside."""
    path = str(path)
    arrays = ck.params.named_arrays()
    header = {
        "version": CHECKPOINT_VERSION,
        "config": ck.config.to_dict(),
        "config_digest": ck.config.digest(),
        "rng_state": ck.rng_state,
        "epoch": ck.epoch,
        "opt_step": ck.params.step,
        "diverged": ck.diverged,
        "history": [[int(e), float(l), float(r)] for e, l, r in ck.history],
        "tensors": _tensor_list(arrays),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in arrays:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
    csv_path = path + ".history.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,lr\n")
        for e, loss, lr in ck.history:
            fh.write(f"{int(e)},{loss!r},{lr!r}\n")


def _tensor_list(arrays):
    """The header's `tensors` entry: name and shape of each array, in file order."""
    return [{"name": name, "shape": list(array.shape)} for name, array in arrays.items()]


def _read_exact(fh, count, what):
    raw = fh.read(count)
    if len(raw) != count:
        raise CheckpointError(f"truncated {what}")
    return raw


def load_checkpoint(path):
    """Read a checkpoint; every malformed file raises CheckpointError."""
    with open(path, "rb") as fh:
        # in memory, a read past the end stops at the file's size
        fh = io.BytesIO(fh.read())
    magic = fh.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
    try:
        header = json.loads(_read_exact(fh, header_len, "header").decode())
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not a JSON object")
        return _assemble_checkpoint(header, fh.read())
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_history(rows):
    return isinstance(rows, list) and all(
        isinstance(row, list) and len(row) == 3 and _is_count(row[0])
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row[1:])
        for row in rows)


# type checks of the header's scalar entries
_HEADER_CHECKS = {
    "opt_step": _is_count,
    "epoch": _is_count,
    "history": _is_history,
    "diverged": lambda value: isinstance(value, bool),
    "rng_state": lambda value: isinstance(value, dict),
}


def _assemble_checkpoint(header, payload):
    """The checkpoint of a header and its tensor data.

    The run state is laid out from the header's config; the header's tensor
    list must equal that layout and the payload must be exactly its size.
    """
    header = {"diverged": False, **header}
    for key, valid in _HEADER_CHECKS.items():
        if not valid(header[key]):
            raise CheckpointError(f"checkpoint {key} is malformed: {header[key]!r}")
    config = config_from_dict(header["config"])
    if config.digest() != header["config_digest"]:
        raise CheckpointError("config digest mismatch")
    params = emnn.ParamStore(emnn.param_table(config), step=header["opt_step"])
    arrays = params.named_arrays()
    # compared as JSON text, so that neither 4.0 nor true stands in for 4
    if (json.dumps(header["tensors"], sort_keys=True)
            != json.dumps(_tensor_list(arrays), sort_keys=True)):
        raise CheckpointError("tensor list does not match the layout of the "
                              "checkpoint's config")
    size = 8 * sum(view.size for view in arrays.values())
    if len(payload) != size:
        raise CheckpointError(f"tensor data is {len(payload)} bytes, the layout needs {size}")
    data, offset = np.frombuffer(payload, "<f8"), 0
    for view in arrays.values():
        view[...] = data[offset:offset + view.size].reshape(view.shape)
        offset += view.size
    return Checkpoint(config, params, header["rng_state"],
                      [tuple(row) for row in header["history"]], header["epoch"],
                      header["diverged"])


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def train_step(model, opt, draws, lr):
    """One forward, BCE, backward and AdamW step of an ensemble on its runs'
    (realization, batch, noise) draws: (the per-run losses, a mask of the
    runs whose loss or gradient is non-finite). With any such run, no run moves:
    the batchnorm statistics are put back and the optimizer has not stepped.
    """
    realizations, blocks, noise = zip(*draws)
    bits = np.stack([b.bits for b in blocks])
    stats = opt.params.stats.copy()
    logits = model.forward(bits, np.stack([b.power_dbm for b in blocks]),
                           ChannelRealization.stack(realizations), training=True,
                           noise_override=[np.stack(n) for n in zip(*noise)])
    losses = bce_loss(bits, logits)
    bad = ~np.isfinite(losses.data)
    if not bad.any():
        ag.backward(ag.reduce_sum(losses))
        try:
            opt.step(lr)
        except TrainingDiverged as exc:
            bad[exc.runs] = True
    if bad.any():
        opt.params.stats[...] = stats
    return losses, bad


def fit(model, rngs, epochs, lr_at, realization_at):
    """The epoch loop of base training and fine-tuning, over an ensemble.

    `model.params` stacks one run per generator in `rngs` (emnn.ParamStore),
    and `realization_at(r)` is run r's channel realization for an epoch.
    Per epoch, each run draws from its own generator, in this order: its
    realization, one fresh batch, the receiver noise of terminal 1, then
    that of terminal 2. All runs then take one forward, BCE, backward and
    AdamW step together; no op mixes runs, so each run takes the steps it
    would take alone. A run whose loss or gradient is non-finite leaves the
    ensemble as diverged, in its last good state, and the others redo the
    step from the same draws. `lr_at(epoch)` is the epoch's learning rate.
    Returns one checkpoint per run, in order.
    """
    config = model.config
    opt = AdamW(model.params, weight_decay=config.training.weight_decay)
    batch = config.training.batch_size
    live = list(range(len(rngs)))           # the ensemble's runs, in store order
    history = [[] for _ in rngs]
    done = [None] * len(rngs)

    def finish(position, diverged):
        run = live[position]
        done[run] = Checkpoint(config, opt.params.run(position),
                               rngs[run].bit_generator.state, history[run],
                               len(history[run]), diverged)

    for epoch in range(epochs):
        if not live:
            break
        lr = lr_at(epoch)
        draws = [(realization_at(r), sample_batch(rngs[r], config),
                  receiver_noise(config, batch, rngs[r])) for r in live]
        # drop the last step's graph before this step's forward: the two
        # graphs are never held at once, which keeps the peak down
        losses = None
        losses, bad = train_step(model, opt, draws, lr)
        while bad.any():
            for position in np.flatnonzero(bad):
                finish(position, True)
            keep = np.flatnonzero(~bad)
            live, draws = [live[i] for i in keep], [draws[i] for i in keep]
            if not live:
                break
            model.params = opt.params = emnn.ParamStore.stack(
                [opt.params.run(i) for i in keep])
            losses, bad = train_step(model, opt, draws, lr)
        for r, value in zip(live, losses.data):
            history[r].append((epoch, float(value), lr))
    for position in range(len(live)):
        finish(position, False)
    return done


def train_base(config, seed=None, epochs=None):
    """Train the base model against the statistical channel source.

    Per epoch: one fresh batch, one fresh statistical channel draw (the
    innovation around the experiment's persistent component is redrawn,
    shadowing included), forward, BCE, backward, AdamW step. With restarts
    configured, independent runs are trained as one ensemble and the one
    with the lowest final smoothed training loss is kept, the earliest on a
    tie. A non-finite loss or gradient aborts the run and returns the last
    good state.
    """
    if seed is not None and seed != config.training.seed:
        config = replace(config, training=replace(config.training, seed=seed))
    tc = config.training
    epochs = tc.epochs if epochs is None else epochs
    source = ChannelSource(config)
    rngs = [np.random.default_rng(tc.seed if restart == 0
                                  else derive_seed(tc.seed, 0x52535452 + restart))
            for restart in range(tc.restarts)]
    model = emnn.Emnn(config, params=emnn.ParamStore.stack(
        [emnn.init_params(config, rng) for rng in rngs]))
    runs = fit(model, rngs, epochs, lambda epoch: lr_schedule(epoch, tc),
               lambda r: source.statistical(rngs[r]))
    scores = [np.inf if run.diverged else
              float(np.mean([h[1] for h in run.history[-50:]] or [np.inf]))
              for run in runs]
    return runs[scores.index(min(scores))]


def finetune(base, realizations, rngs, epochs=None):
    """Continue training from a base checkpoint, one copy per frozen
    realization in `realizations`, run r drawing from generator `rngs[r]`;
    the two lists must be equally long.

    All parameters stay trainable and batchnorm running statistics keep
    updating; only the channel layer is pinned to the run's realization.
    The optimizer continues from the base run's moments and step count,
    which the copied store carries. The copies train as one ensemble (see
    fit); returns their checkpoints, in order.
    """
    if len(realizations) != len(rngs):
        raise ValueError(f"finetune needs one generator per realization, got "
                         f"{len(realizations)} realizations and {len(rngs)} generators")
    config = base.config
    tc = config.training
    epochs = tc.finetune_epoch_count if epochs is None else epochs
    model = emnn.Emnn(config, params=emnn.ParamStore.stack([base.params] * len(rngs)))
    return fit(model, rngs, epochs, lambda epoch: tc.finetune_learning_rate,
               lambda r: realizations[r])


def smoothed(series, window=50):
    """Trailing moving average; entry i averages series[max(0, i-w+1) .. i]."""
    series = np.asarray(series, dtype=float)
    out = np.empty_like(series)
    csum = np.cumsum(series)
    for i in range(len(series)):
        lo = max(0, i - window + 1)
        total = csum[i] - (csum[lo - 1] if lo > 0 else 0.0)
        out[i] = total / (i - lo + 1)
    return out
