"""`tools/step_memory.py` runs, and its census counts the step's loss graph."""

import importlib.util
from pathlib import Path

import numpy as np

import simfd.autograd as ag
import simfd.channel as ch
import simfd.emnn as emnn
import simfd.training as training
from simfd.config import miniature_config

STEP_MEMORY = Path(__file__).resolve().parents[1] / "tools" / "step_memory.py"


def load_step_memory():
    spec = importlib.util.spec_from_file_location("step_memory", STEP_MEMORY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_counts_one_mini_step():
    cfg = miniature_config()
    nodes, values, peak, held = load_step_memory().census(cfg, 1)
    rng = np.random.default_rng(0)
    bits = training.sample_batch(rng, cfg)
    logits = emnn.Emnn(cfg, rng=rng).forward(
        bits.bits, bits.power_dbm, ch.ChannelSource(cfg).instantaneous(0),
        ch.receiver_noise(cfg, cfg.training.batch_size, rng))
    assert nodes == len(ag.topo_order(training.bce_loss(bits.bits, logits))) == 105
    assert values > 0
    assert peak >= held > 0
