"""Monte Carlo BER evaluation: the train / fine-tune / sweep protocol, the
no-stack baseline, and experiment grids over layer count, unit count, and
bit count.

Every emitted row carries the integer seed that reproduces it; rerun_row
replays the realization / fine-tune / evaluation pipeline for one row and
must match bit-exactly. Error counting is integer; the ratio is the only
float.
"""

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from . import autograd as ag
from . import config as cfg_mod
from . import emnn
from . import training
from .channel import ChannelSource, derive_seed


def ber(bits, decided):
    """(errors, total, ratio); the count is exact integer arithmetic."""
    bits = np.asarray(bits)
    decided = np.asarray(decided)
    if bits.shape != decided.shape:
        raise ValueError(f"length mismatch {bits.shape} vs {decided.shape}")
    errors = int((bits.astype(np.int64) != decided.astype(np.int64)).sum())
    total = int(bits.size)
    return errors, total, errors / total


@dataclass
class BerRow:
    label: str
    power_dbm: float
    realization: int
    seed: int
    bits: int
    errors: int
    ber: float


class BerReport:
    """Rows ordered by (label, power, realization) once, when the report is
    built, plus per-(label, power) aggregates, exportable to CSV/JSON."""

    def __init__(self, rows):
        self.rows = sorted(rows, key=lambda r: (r.label, r.power_dbm, r.realization))

    def aggregates(self):
        groups = {}
        for row in self.rows:
            groups.setdefault((row.label, row.power_dbm), []).append(row.ber)
        out = []
        for (label, power), vals in sorted(groups.items()):
            out.append({
                "label": label,
                "power_dbm": power,
                "rows": len(vals),
                "mean_ber": float(np.mean(vals)),
                "median_ber": float(np.median(vals)),
            })
        return out

    def median_ber(self, label, power_dbm):
        return float(np.median([r.ber for r in self.rows
                                if (r.label, r.power_dbm) == (label, power_dbm)]))

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "power_dbm", "realization", "seed",
                             "bits", "errors", "ber"])
            for row in self.rows:
                writer.writerow([row.label, row.power_dbm, row.realization,
                                 row.seed, row.bits, row.errors, repr(row.ber)])

    def summary(self, config):
        return {"aggregates": self.aggregates(), "rows": len(self.rows),
                "config_digest": config.digest(), "config_label": config.label}

    def to_json(self, path, config):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(config), fh, indent=2, sort_keys=True)
            fh.write("\n")


def evaluate(model, realization, power_dbm, test_scale, rng, batch_size=None):
    """BER of one model on one frozen realization at one power.

    Runs the forward in evaluation mode (batchnorm running statistics,
    receiver noise on) inside `no_grad`, since nothing is differentiated,
    hard-decides, and counts errors over exactly `test_scale` symbols.
    Deterministic for a fixed rng state.
    """
    if batch_size is None:
        batch_size = model.config.evaluation.eval_batch
    if test_scale < 2 or batch_size < 2:
        raise ValueError("power control needs batches of at least 2 symbols")
    total_bits = model.config.total_bits
    errors = 0
    counted = 0
    remaining = int(test_scale)
    while remaining > 0:
        n = min(batch_size, remaining)
        if remaining - n == 1:
            n += 1  # fold a lone leftover symbol into this batch
        bits = rng.integers(0, 2, (n, total_bits)).astype(float)
        with ag.no_grad():
            soft = model.forward(bits, np.full(n, float(power_dbm)), realization,
                                 rng=rng, training=False)
        decided = emnn.hard_decision(soft)
        e, t, _ = ber(bits, decided)
        errors += e
        counted += t
        remaining -= n
    return errors, counted, errors / counted


def _eval_one_realization(base, source, seed, index, powers, test_scale, label):
    """Realization, fine-tune and power sweep for one row seed; rows of a
    diverged fine-tune keep their counts but carry ber = nan."""
    rng = np.random.default_rng(seed)
    realization = source.instantaneous(seed)
    tuned = training.finetune(base, realization, rng)
    model = emnn.Emnn(source.config, params=tuned.params)
    rows = []
    for power in powers:
        errors, bits, ratio = evaluate(model, realization, power, test_scale, rng)
        rows.append(BerRow(label, float(power), index, seed, bits, errors,
                           float("nan") if tuned.diverged else ratio))
    return rows


def monte_carlo_eval(base, master_seed=None):
    """Fine-tune and sweep the power grid over independent realizations.

    Everything is read from the checkpoint's config. Each realization gets a
    derived seed covering its channel innovation, the fine-tune batches, and
    the evaluation symbols; a diverged fine-tune is recorded as failed rows
    (ber = nan) rather than dropped. Rows reproduce from (checkpoint, row
    seed) alone.
    """
    config = base.config
    ev = config.evaluation
    master_seed = ev.seed if master_seed is None else master_seed
    source = ChannelSource(config)
    return BerReport([
        row for index in range(ev.monte_carlo)
        for row in _eval_one_realization(
            base, source, derive_seed(master_seed, index), index,
            ev.power_sweep_dbm, ev.test_scale, config.label)])


def rerun_row(base, row):
    """Replay one report row from its recorded seed; must reproduce exactly.

    The sweep runs up to the row's power, since each power's symbols are
    drawn from the same generator after those of the powers before it.
    """
    config = base.config
    powers = [float(p) for p in config.evaluation.power_sweep_dbm]
    if row.power_dbm not in powers:
        raise ValueError(f"power {row.power_dbm} not in the configured sweep")
    return _eval_one_realization(
        base, ChannelSource(config), row.seed, row.realization,
        powers[:powers.index(row.power_dbm) + 1], config.evaluation.test_scale,
        row.label)[-1]


def baseline_conventional(config):
    """Derived configuration with no stacks: antennas couple directly."""
    return replace(cfg_mod.with_layers(config, 0), label=f"{config.label}-conventional")


def sweep_configs(kind, grid, base_config):
    """Config per grid point for a named sweep family."""
    if kind == "layers":
        return [cfg_mod.with_layers(base_config, int(v)) for v in grid]
    if kind == "units":
        return [cfg_mod.with_unit_grid(base_config, v) for v in grid]
    if kind == "bits":
        return [cfg_mod.with_bits(base_config, v) for v in grid]
    if kind == "power":
        return [base_config]
    raise ValueError(f"unknown sweep kind {kind!r}")


def protocol(configs, master_seed=None):
    """The paper's protocol for each config: train a base model on the
    statistical channel, then fine-tune and sweep it on each realization.

    An arm over training seeds is a list of configs that differ only in
    `training.seed`; its rows share a label. One report holds every row.
    """
    return BerReport([row for config in configs
                      for row in monte_carlo_eval(training.train_base(config),
                                                  master_seed).rows])
