"""Span tracer that times calls into simfd's layers from outside the program.

`Tracer.installed` replaces the module functions and class methods listed
in `SPAN_TARGETS` and `COUNT_TARGETS` with wrappers for the length of a `with` block and then
puts the originals back, so untraced code runs the program unmodified.
Spans (name, start, end, parent) are kept in memory and written out once,
at the end of the run. A target that no longer exists is recorded as absent
and its metrics are left out of the report.
"""

import time
from contextlib import contextmanager

from simfd import autograd, channel, emnn, evaluation, training, wavefield

# (span name, module, attribute path); several targets may share one span name
SPAN_TARGETS = (
    ("channel.draw", channel, "ChannelSource.statistical"),
    ("channel.draw", channel, "ChannelSource.instantaneous"),
    ("emnn.build", emnn, "Emnn.__init__"),
    ("emnn.forward", emnn, "Emnn.forward"),
    ("emnn.tx_dnn", emnn, "tx_dnn_forward"),
    ("emnn.power_control", emnn, "power_control"),
    ("emnn.tx_stack", emnn, "tx_sim_forward"),
    ("emnn.channel", emnn, "channel_layer"),
    ("emnn.rx_stack", emnn, "rx_sim_forward"),
    ("emnn.rx_dnn", emnn, "rx_dnn_forward"),
    ("autograd.backward", autograd, "backward"),
    ("training.batch", training, "sample_batch"),
    ("training.loss", training, "bce_loss"),
    ("training.optimizer", training, "AdamW.step"),
    ("training.finetune", training, "finetune"),
    ("evaluation.evaluate", evaluation, "evaluate"),
    ("evaluation.decide", emnn, "hard_decision"),
    ("evaluation.decide", evaluation, "ber"),
)

# (count metric name, module, attribute path): calls counted, not timed, so
# their time stays in the caller's self time
COUNT_TARGETS = (
    ("wavefield.pair_splits", wavefield, "complex_to_pair"),
)

# reported self times: metric name -> span name
SELF_TIME_METRICS = {
    "channel.draw_s": "channel.draw",
    "emnn.build_s": "emnn.build",
    "emnn.tx_dnn_s": "emnn.tx_dnn",
    "emnn.power_control_s": "emnn.power_control",
    "emnn.tx_stack_s": "emnn.tx_stack",
    "emnn.channel_s": "emnn.channel",
    "emnn.rx_stack_s": "emnn.rx_stack",
    "emnn.rx_dnn_s": "emnn.rx_dnn",
    "emnn.forward_s": "emnn.forward",
    "autograd.backward_s": "autograd.backward",
    "training.batch_s": "training.batch",
    "training.loss_s": "training.loss",
    "training.optimizer_s": "training.optimizer",
    "training.finetune_s": "training.finetune",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "evaluation.decide_s": "evaluation.decide",
}

# reported call counts: metric name -> span name
CALL_COUNT_METRICS = {
    "channel.draws": "channel.draw",
    "emnn.builds": "emnn.build",
    "emnn.forward_calls": "emnn.forward",
}

# loss graphs measured per run; every step builds the same graph
GRAPH_SAMPLES = 4


def _resolve(module, path):
    """(owner, attribute, original) for a dotted attribute path, or None."""
    owner = module
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head, None)
        if owner is None:
            return None
    # a class attribute is read from __dict__ so a method is restored as-is
    original = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """In-memory spans around simfd's public functions."""

    def __init__(self):
        # finished spans are tuples of atoms, which the cyclic garbage
        # collector stops tracking, so a long trace does not slow collection
        self.spans = []           # (name, start, end, parent index or -1)
        self.graph_nodes = []
        self.graph_bytes = []
        self.counts = {}          # (top-level span name, count name) -> calls
        self.absent = []
        self._stack = []          # (index, name, start, parent) of open spans
        self._patches = []        # (owner, attribute, original, wrapper)
        targets = [(n, m, p, self._timed) for n, m, p in SPAN_TARGETS] \
            + [(n, m, p, self._counted) for n, m, p in COUNT_TARGETS]
        for name, module, path, make in targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module.__name__}.{path}")
                continue
            owner, attr, original = found
            if name == "autograd.backward":
                make = self._backward
            self._patches.append((owner, attr, original, make(name, original)))

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((len(self.spans), name, time.perf_counter(), parent))
        self.spans.append(None)

    def _close(self):
        index, name, start, parent = self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), parent)

    @contextmanager
    def region(self, name):
        """Span around the benchmark's own code."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            key = (self._stack[0][1] if self._stack else None, name)
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _backward(self, name, fn):
        """Backward span, preceded by a size census of the loss graph.

        The census runs in its own span so its cost is not charged to the
        caller's self time.
        """
        timed = self._timed(name, fn)
        topo_order = getattr(autograd, "topo_order", None)

        def wrapper(loss, *args, **kwargs):
            if topo_order is not None and len(self.graph_nodes) < GRAPH_SAMPLES:
                with self.region("trace.graph_census"):
                    nodes = topo_order(loss)
                    self.graph_nodes.append(len(nodes))
                    self.graph_bytes.append(sum(n.data.nbytes for n in nodes))
            return timed(loss, *args, **kwargs)
        return wrapper

    # -- install / uninstall --------------------------------------------------

    @contextmanager
    def installed(self, name):
        """Wrappers installed, inside one top-level span `name`; the
        originals are restored on exit."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            with self.region(name):
                yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self, root=None):
        """Per span name: (total self time in s, number of spans).

        With `root`, only spans under a top-level span of that name count.
        """
        child = [0.0] * len(self.spans)
        roots = []
        for name, start, end, parent in self.spans:
            roots.append(roots[parent] if parent >= 0 else name)
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered, top in zip(self.spans, child, roots):
            if root is None or top == root:
                total, calls = out.get(name, (0.0, 0))
                out[name] = (total + (end - start) - covered, calls + 1)
        return out

    def _present(self, name):
        """False when every target behind a span or count name was absent."""
        paths = [f"{m.__name__}.{p}" for n, m, p in SPAN_TARGETS + COUNT_TARGETS
                 if n == name]
        return any(p not in self.absent for p in paths)

    def layer_metrics(self, setup_root, round_root, rounds):
        """Per-layer metrics of one set-up plus one round, as {name: (value, unit)}.

        Self times and call counts are those of the `setup_root` span plus
        the mean over the `rounds` spans named `round_root`.
        """
        setup = self.self_times(setup_root)
        per_round = self.self_times(round_root)

        def value(span, k):
            return setup.get(span, (0.0, 0))[k] + per_round.get(span, (0.0, 0))[k] / rounds

        out = {}
        for metric, span in SELF_TIME_METRICS.items():
            if self._present(span):
                out[metric] = (value(span, 0), "s")
        for metric, span in CALL_COUNT_METRICS.items():
            if self._present(span):
                out[metric] = (value(span, 1), "count")
        for metric, _, _ in COUNT_TARGETS:
            if self._present(metric):
                out[metric] = (self.counts.get((setup_root, metric), 0)
                               + self.counts.get((round_root, metric), 0) / rounds,
                               "count")
        if self._present("autograd.backward") and \
                getattr(autograd, "topo_order", None) is not None:
            nodes = sorted(self.graph_nodes)
            size = sorted(self.graph_bytes)
            mid = len(nodes) // 2
            out["autograd.graph_nodes"] = (nodes[mid] if nodes else 0, "count")
            out["autograd.graph_mb"] = (size[mid] / 2**20 if size else 0.0, "MiB")
        return out

    def to_dict(self):
        return {
            "absent": self.absent,
            "counts": {f"{root}/{name}": n for (root, name), n in self.counts.items()},
            "graph_nodes": self.graph_nodes,
            "graph_bytes": self.graph_bytes,
            "self_times": {k: {"self_s": v[0], "calls": v[1]}
                           for k, v in sorted(self.self_times().items())},
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
        }
