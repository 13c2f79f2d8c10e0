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
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import autograd as ag
from . import emnn
from .channel import ChannelSource, derive_seed
from .config import config_from_dict

CHECKPOINT_MAGIC = b"SIMFDCKP"
CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradient encountered."""


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


# ---------------------------------------------------------------------------
# loss / optimizer / schedule
# ---------------------------------------------------------------------------

def bce_loss(bits, soft):
    """Binary cross-entropy, summed over bits, averaged over the batch."""
    b = np.asarray(bits, dtype=float)
    if b.shape != soft.data.shape:
        raise ag.GraphError(f"bit block {b.shape} vs soft output {soft.data.shape}")
    hit = ag.hadamard(b, ag.log(soft))
    miss = ag.hadamard(1.0 - b, ag.log(ag.sub(1.0, soft)))
    return ag.scale(ag.reduce_sum(ag.add(hit, miss)), -1.0 / b.shape[0])


def adamw_step(data, grad, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8,
               weight_decay=0.0):
    """One decoupled-weight-decay Adam update, in place on `data`, `m`, `v`."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    update = m_hat / (np.sqrt(v_hat) + eps)
    if weight_decay:
        update = update + weight_decay * data
    data -= lr * update


class AdamW:
    """AdamW over a ParamStore, one vectorized update per step.

    Steps the store's flat buffer, its moments `m` and `v` and its step count
    in place. Weight decay covers the buffer's decayed prefix (the weight
    matrices); phase vectors, biases and batchnorm parameters are excluded
    from it. A non-finite gradient anywhere raises TrainingDiverged before
    any of the store moves.
    """

    def __init__(self, params, weight_decay=1e-4):
        self.params = params
        decayed = params.decayed
        self._spans = ((slice(0, decayed), weight_decay), (slice(decayed, None), 0.0))

    def step(self, lr):
        params = self.params
        grad = params.flat_grad()
        if not np.isfinite(grad).all():
            name = next(name for name, t in params.named_tensors().items()
                        if t.grad is not None and not np.isfinite(t.grad).all())
            raise TrainingDiverged(f"non-finite gradient in {name}")
        params.step += 1
        for span, wd in self._spans:
            adamw_step(params.flat[span], grad[span], params.m[span], params.v[span],
                       params.step, lr, weight_decay=wd)


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

def _fit(model, opt, rng, epochs, lr_at, realization_at):
    """The epoch loop of base training and fine-tuning.

    Per epoch: the lr, a channel realization, one fresh batch, forward,
    BCE, backward, AdamW step. A non-finite loss or gradient stops the loop
    and marks the run diverged. Returns the checkpoint of the last good
    state: the diverging step's forward has already moved the batchnorm
    running statistics, so they are put back.
    """
    history = []
    diverged = False
    for epoch in range(epochs):
        lr = lr_at(epoch)
        realization = realization_at()
        block = sample_batch(rng, model.config)
        stats = model.params.stats.copy()
        soft = model.forward(block.bits, block.power_dbm, realization, rng=rng,
                             training=True)
        loss = bce_loss(block.bits, soft)
        value = float(loss.data)
        diverged = not np.isfinite(value)
        if not diverged:
            ag.backward(loss)
            try:
                opt.step(lr)
            except TrainingDiverged:
                diverged = True
        if diverged:
            model.params.stats[...] = stats
            break
        history.append((epoch, value, lr))
    return Checkpoint(model.config, model.params, rng.bit_generator.state, history,
                      len(history), diverged)


def _train_run(config, source, seed, epochs, frozen=None):
    """One optimization run from a fresh init; statistical draws unless a
    frozen realization is given."""
    rng = np.random.default_rng(seed)
    model = emnn.Emnn(config, rng=rng)
    opt = AdamW(model.params, weight_decay=config.training.weight_decay)
    return _fit(
        model, opt, rng, epochs, lambda epoch: lr_schedule(epoch, config.training),
        (lambda: frozen) if frozen is not None else (lambda: source.statistical(rng)))


def train_base(config, seed=None, epochs=None):
    """Train the base model against the statistical channel source.

    Per epoch: one fresh batch, one fresh statistical channel draw (the
    innovation around the experiment's persistent component is redrawn,
    shadowing included), forward, BCE, backward, AdamW step. With restarts
    configured, independent runs are trained and the one with the lowest
    final smoothed training loss is kept. A non-finite loss or gradient
    aborts the run and returns the last good state.
    """
    if seed is not None and seed != config.training.seed:
        config = replace(config, training=replace(config.training, seed=seed))
    tc = config.training
    seed = tc.seed
    epochs = tc.epochs if epochs is None else epochs
    source = ChannelSource(config)
    best = None
    best_score = np.inf
    for restart in range(tc.restarts):
        run_seed = seed if restart == 0 else derive_seed(seed, 0x52535452 + restart)
        run = _train_run(config, source, run_seed, epochs)
        tail = [h[1] for h in run.history[-50:]] or [np.inf]
        score = float(np.mean(tail)) if not run.diverged else np.inf
        if score < best_score or best is None:
            best_score = score
            best = run
    return best


def finetune(base, realization, rng, epochs=None):
    """Continue training from a base checkpoint on one frozen realization.

    All parameters stay trainable and batchnorm running statistics keep
    updating; only the channel layer is pinned to `realization`. The
    optimizer continues from the base run's moments and step count, which
    the copied store carries.
    """
    config = base.config
    tc = config.training
    epochs = tc.finetune_epoch_count if epochs is None else epochs
    model = emnn.Emnn(config, params=base.params.copy())
    try:
        model.check_realization(realization)
    except emnn.ArchitectureError as exc:
        raise emnn.ArchitectureError(f"invalid transfer: {exc}") from exc
    opt = AdamW(model.params, weight_decay=tc.weight_decay)
    return _fit(model, opt, rng, epochs, lambda epoch: tc.finetune_learning_rate,
                lambda: realization)


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
