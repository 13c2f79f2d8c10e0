"""The benchmark's workloads still run against simfd's public API.

The tracer check only sees the names it wraps; a changed signature or
attribute the workloads use (a `ChannelSource` draw, `forward`'s
`noise_override`, `model.arch.rx_antennas`) would surface only when the
benchmark runs. This runs every workload's set-up, then one round and the
output checks of the two paper-scale workloads (the train-reference check
drives `forward(noise_override=)` in its directional gradient check).
"""

import importlib.util
import json
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULE = load_workloads()


@pytest.mark.parametrize("name", sorted(MODULE.WORKLOADS))
def test_workload_sets_up(name, tmp_path):
    workload = MODULE.WORKLOADS[name](seed=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workload.config_doc()))
    workload.setup(path)
    if name in ("train-reference", "eval-reference"):
        attempted, failed = workload.run_round(0)
        assert attempted > 0 and failed == 0
        assert workload.check() == []
