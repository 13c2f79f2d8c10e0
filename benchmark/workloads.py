"""The simfd benchmark workloads: inputs, set-up, rounds of work, output checks.

Each workload makes its config document from the benchmark seed, loads it
through `simfd.config.load_config`, and then only calls simfd's public API.
A round is a fixed amount of work; the runner repeats whole rounds until the
measuring time is used up. Checks use properties the method must have or
figures computed apart from the program, never a stored copy of earlier
output.
"""

import math
import time

import numpy as np

from simfd import autograd, channel, config, emnn, evaluation, training
from simfd.channel import derive_seed


def reset_caches():
    """Drop simfd's process-wide caches so every set-up starts cold."""
    clear = getattr(channel.correlation_bundle, "cache_clear", None)
    if clear is not None:
        clear()


class Workload:
    """One benchmark workload; subclasses fill in the five steps."""

    name = ""
    op = ""          # what one operation of `ops_per_s` is

    def __init__(self, seed):
        self.seed = int(seed)
        self.cfg = None

    def config_doc(self):
        """The config document the program receives (a JSON-ready dict)."""
        raise NotImplementedError

    def setup(self, path):
        """Config load, model and channel-source construction, warm-up."""
        raise NotImplementedError

    def timed_setup(self, path):
        """Seconds taken by one set-up from cold caches."""
        reset_caches()
        start = time.perf_counter()
        self.setup(path)
        return time.perf_counter() - start

    def prepare(self):
        """Untimed work between set-up and the measured rounds; a dict of
        figures to record with the run."""
        return {}

    def run_round(self, index):
        """One round of work: (operations attempted, operations failed)."""
        raise NotImplementedError

    def check(self):
        """Messages for every output check that failed."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# train-reference
# ---------------------------------------------------------------------------

def _relu_pattern(loss):
    """Active-unit masks of every relu in the loss graph, in graph order."""
    topo_order = getattr(autograd, "topo_order", None)
    if topo_order is None:
        return []
    return [node.data > 0 for node in topo_order(loss) if node.op == "relu"]


def directional_gradient_error(cfg, params, seed, batch=64, h=1e-5, attempts=8):
    """Relative error of the analytic gradient against a central difference.

    The loss is the training BCE at `params` on a frozen batch, frozen
    channel realization and frozen receiver noise (`noise_override`); the
    gradient is projected on a random unit direction over every trainable
    tensor. A batch whose relu pattern changes within +-h straddles a kink,
    where a central difference is no derivative, and is drawn again.
    """
    rng = np.random.default_rng(seed)
    model = emnn.Emnn(cfg, params=params.copy())
    realization = channel.ChannelSource(cfg).instantaneous(derive_seed(seed, 1))
    tensors = model.params.trainables()
    saved = [t.data.copy() for t in tensors]
    noise_var = channel.dbm_to_watt(cfg.channel.noise_dbm)
    tc = cfg.training
    for _ in range(attempts):
        bits = rng.integers(0, 2, (batch, cfg.total_bits)).astype(float)
        power = rng.uniform(tc.power_min_dbm, tc.power_max_dbm, batch)
        noise = [channel.draw_noise(noise_var, (batch, model.arch.rx_antennas[q - 1]),
                                    rng) for q in (1, 2)]
        direction = [rng.standard_normal(t.data.shape) for t in tensors]
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction))
        direction = [d / norm for d in direction]

        def loss_at(step):
            for t, base, d in zip(tensors, saved, direction):
                t.data = base + step * d
            soft = model.forward(bits, power, realization, training=True,
                                 noise_override=noise)
            return training.bce_loss(bits, soft)

        loss = loss_at(0.0)
        autograd.backward(loss)
        analytic = sum(float((t.grad * d).sum()) for t, d in zip(tensors, direction))
        hi = loss_at(h)
        lo = loss_at(-h)
        for t, base in zip(tensors, saved):
            t.data = base.copy()
        patterns = [_relu_pattern(x) for x in (loss, hi, lo)]
        if any(len(a) != len(b) or any((x != y).any() for x, y in zip(a, b))
               for a, b in zip(patterns, patterns[1:])):
            continue
        fd = (float(hi.data) - float(lo.data)) / (2.0 * h)
        return abs(analytic - fd) / max(abs(analytic), abs(fd))
    return math.inf


class TrainReference(Workload):
    """Base training at paper scale: batch 1000 through 81-unit stacks."""

    name = "train-reference"
    op = "base-training step"
    epochs = 30              # per round, i.e. per train_base call
    window = 10              # loss windows compared by the descent check
    gradient_tolerance = 1e-6

    def __init__(self, seed):
        super().__init__(seed)
        self.rounds = []     # (history, diverged, params)

    def config_doc(self):
        doc = config.reference_config().to_dict()
        doc["training"]["epochs"] = self.epochs
        doc["training"]["seed"] = derive_seed(self.seed, 0)
        return doc

    def setup(self, path):
        self.cfg = config.load_config(path)
        training.train_base(self.cfg, epochs=1)

    def run_round(self, index):
        ck = training.train_base(self.cfg,
                                 seed=derive_seed(self.cfg.training.seed, index + 1))
        self.rounds.append((ck.history, ck.diverged, ck.params))
        failed = self.epochs - len(ck.history) if ck.diverged else 0
        return self.epochs, failed

    def check(self):
        failures = []
        chance = self.cfg.total_bits * math.log(2.0)
        good = [(h, p) for h, diverged, p in self.rounds if not diverged]
        if not good:
            return ["no training round completed"]
        for i, (history, _) in enumerate(good):
            losses = np.array([loss for _, loss, _ in history])
            if not np.isfinite(losses).all():
                failures.append(f"round {i}: non-finite loss")
                continue
            if abs(losses[0] / chance - 1.0) > 0.2:
                failures.append(f"round {i}: first BCE {losses[0]:.4f} is not within "
                                f"20% of total_bits*ln2 = {chance:.4f}")
            first, last = losses[:self.window].mean(), losses[-self.window:].mean()
            if not last < first:
                failures.append(f"round {i}: final-window loss {last:.4f} is not "
                                f"below first-window loss {first:.4f}")
        err = directional_gradient_error(self.cfg, good[-1][1],
                                         derive_seed(self.seed, 7))
        if not err <= self.gradient_tolerance:
            failures.append(f"directional gradient error {err:.3g} exceeds "
                            f"{self.gradient_tolerance:g}")
        return failures


# ---------------------------------------------------------------------------
# eval-reference
# ---------------------------------------------------------------------------

class EvalReference(Workload):
    """Read-only power sweep of a fixed-seed, untrained reference model."""

    name = "eval-reference"
    op = "BER symbol"
    test_scale = 4096        # symbols per power, two full eval batches
    chance_margin = 0.02

    def __init__(self, seed):
        super().__init__(seed)
        self.rows = []       # (power, errors, bits)
        self.model = None
        self.realization = None

    def config_doc(self):
        doc = config.reference_config().to_dict()
        doc["training"]["seed"] = derive_seed(self.seed, 0)
        doc["evaluation"]["test_scale"] = self.test_scale
        doc["evaluation"]["seed"] = derive_seed(self.seed, 1)
        return doc

    def setup(self, path):
        self.cfg = config.load_config(path)
        ev = self.cfg.evaluation
        source = channel.ChannelSource(self.cfg)
        self.realization = source.instantaneous(derive_seed(ev.seed, 0))
        self.model = emnn.Emnn(self.cfg,
                               rng=np.random.default_rng(derive_seed(self.seed, 2)))
        evaluation.evaluate(self.model, self.realization, ev.power_sweep_dbm[0],
                            ev.eval_batch, np.random.default_rng(ev.seed))

    def run_round(self, index):
        ev = self.cfg.evaluation
        rng = np.random.default_rng(derive_seed(ev.seed, index + 1))
        for power in ev.power_sweep_dbm:
            errors, bits, _ = evaluation.evaluate(self.model, self.realization,
                                                  power, ev.test_scale, rng)
            self.rows.append((power, errors, bits))
        return ev.test_scale * len(ev.power_sweep_dbm), 0

    def check(self):
        failures = []
        ev = self.cfg.evaluation
        expect_bits = ev.test_scale * self.cfg.total_bits
        for power, errors, bits in self.rows:
            if bits != expect_bits:
                failures.append(f"{power} dBm: {bits} bits counted, expected {expect_bits}")
            if abs(errors / bits - 0.5) > self.chance_margin:
                failures.append(f"{power} dBm: untrained BER {errors / bits:.4f} "
                                f"is not within 0.5 +- {self.chance_margin}")
        if not self.rows:
            failures.append("no evaluation row")
        top = ev.power_sweep_dbm[-1]
        repeats = [evaluation.evaluate(self.model, self.realization, top, ev.eval_batch,
                                       np.random.default_rng(derive_seed(self.seed, 3)))
                   for _ in range(2)]
        if repeats[0] != repeats[1]:
            failures.append(f"repeated evaluation differs: {repeats[0]} vs {repeats[1]}")
        return failures


# ---------------------------------------------------------------------------
# mc-mini
# ---------------------------------------------------------------------------

class McMini(Workload):
    """The paper's protocol at desk scale: base training with restarts, then
    Monte Carlo realizations, each fine-tuned and swept over power."""

    name = "mc-mini"
    op = "Monte Carlo realization"
    realizations = 2         # per round, i.e. per monte_carlo_eval call
    top_power_ber = 0.05

    def __init__(self, seed):
        super().__init__(seed)
        self.base = None
        self.rows = []

    def config_doc(self):
        # the base model keeps the preset's training seed; the benchmark seed
        # drives realizations, fine-tune batches and evaluation symbols
        doc = config.miniature_config().to_dict()
        doc["evaluation"]["monte_carlo"] = self.realizations
        doc["evaluation"]["seed"] = derive_seed(self.seed, 0)
        return doc

    def setup(self, path):
        self.cfg = config.load_config(path)
        training.train_base(self.cfg, epochs=1)

    def prepare(self):
        start = time.perf_counter()
        self.base = training.train_base(self.cfg)
        elapsed = time.perf_counter() - start
        tc = self.cfg.training
        steps = tc.epochs * tc.restarts
        return {"base_steps": steps, "base_s": elapsed,
                "base_steps_per_s": steps / elapsed}

    def run_round(self, index):
        report = evaluation.monte_carlo_eval(
            self.base, master_seed=derive_seed(self.cfg.evaluation.seed, index + 1))
        self.rows.extend(report.rows)
        failed = len({r.realization for r in report.rows if math.isnan(r.ber)})
        return self.realizations, failed

    def check(self):
        failures = []
        ev = self.cfg.evaluation
        if self.base.diverged:
            failures.append("base training diverged")
        rows = [r for r in self.rows if not math.isnan(r.ber)]
        if not rows:
            return failures + ["no realization completed"]
        expect_bits = ev.test_scale * self.cfg.total_bits
        for r in rows:
            if r.bits != expect_bits:
                failures.append(f"row seed {r.seed} at {r.power_dbm} dBm: {r.bits} "
                                f"bits counted, expected {expect_bits}")
        medians = {p: float(np.median([r.ber for r in rows if r.power_dbm == p]))
                   for p in ev.power_sweep_dbm}
        low, top = ev.power_sweep_dbm[0], ev.power_sweep_dbm[-1]
        if not medians[top] <= self.top_power_ber:
            failures.append(f"median BER {medians[top]:.4g} at {top} dBm exceeds "
                            f"{self.top_power_ber}")
        if not medians[top] < medians[low]:
            failures.append(f"median BER at {top} dBm ({medians[top]:.4g}) is not "
                            f"below that at {low} dBm ({medians[low]:.4g})")
        row = rows[-1]
        again = evaluation.rerun_row(self.base, row)
        if (again.bits, again.errors, again.ber) != (row.bits, row.errors, row.ber):
            failures.append(f"row seed {row.seed} at {row.power_dbm} dBm replays as "
                            f"{again.errors}/{again.bits}, recorded {row.errors}/{row.bits}")
        return failures


WORKLOADS = {w.name: w for w in (TrainReference, EvalReference, McMini)}
