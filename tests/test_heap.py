"""Steady-state heap: once warm, a `reference` eval batch, training step or
stacked fine-tune step takes its memory from the heap, not from fresh pages
of the OS.

The counts come from a fresh interpreter: inside pytest the heap is already
grown by earlier tests, which hides the churn.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")

SCRIPT = """
import json, resource
import numpy as np
from simfd import channel, emnn, evaluation, training
from simfd.config import reference_config

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

config = reference_config()
source = channel.ChannelSource(config)
model = emnn.Emnn(config, rng=np.random.default_rng(2))
realization = source.instantaneous(5)
rng = np.random.default_rng(1)
for _ in range(2):  # the first call warms up
    start = faults()
    evaluation.evaluate(model, realization, 30.0, 8 * 2048, rng, batch_size=2048)
per_batch = (faults() - start) / 8

marks = []          # faults at the start of each epoch; epochs 0-4 warm up

def lr_at(epoch):
    marks.append(faults())
    return training.lr_schedule(epoch, config.training)

rngs = [np.random.default_rng(3)]
model = emnn.Emnn(config, params=emnn.ParamStore.stack([emnn.init_params(config, rngs[0])]))
training.fit(model, rngs, 21, lr_at, lambda r: source.statistical(rngs[r]))
per_step = (marks[20] - marks[5]) / 15

# ten runs stacked on pinned realizations, as `monte_carlo_eval` fine-tunes:
# a step frees far more than one run's graph; epochs 0-2 grow the heap
marks.clear()
rngs = [np.random.default_rng(seed) for seed in range(10)]
realizations = [source.instantaneous(seed) for seed in range(10)]
params = emnn.init_params(config, rngs[0])
model = emnn.Emnn(config, params=emnn.ParamStore.stack([params] * 10))
training.fit(model, rngs, 20, lr_at, lambda r: realizations[r])
print(json.dumps({"per_batch": per_batch, "per_step": per_step,
                  "per_stacked_step": (marks[19] - marks[3]) / 16}))
"""


def test_warm_batches_and_steps_take_no_fresh_pages():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("no glibc mallopt: the heap policy does not apply")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "ignore", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    counts = json.loads(done.stdout.splitlines()[-1])
    # without the heap policy set at import: ~750 faults per 2,048-symbol
    # batch, 120-190 per step and 250-1,000 per stacked step, as glibc maps
    # large arrays afresh and hands the heap top back; with a 16 MiB top pad
    # alone instead, 1,200-6,500 per stacked step
    assert counts["per_batch"] < 50, counts
    assert counts["per_step"] < 50, counts
    assert counts["per_stacked_step"] < 100, counts
