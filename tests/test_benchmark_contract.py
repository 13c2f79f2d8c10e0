"""The benchmark's tracer still finds every simfd function it wraps.

A target that disappears is only recorded as absent by the tracer, and its
per-layer metric silently drops out of every traced result; this test makes
such a rename fail here instead.
"""

import importlib.util
from pathlib import Path

import simfd.autograd as ag

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    assert load_tracer().Tracer().absent == []


def test_graph_census_walk_exists():
    # the tracer sizes each loss graph with topo_order
    assert callable(ag.topo_order)
