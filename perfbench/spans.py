"""Outside-in span tracing of the losslearn package, and the per-layer metrics.

Nothing under ``src/`` knows about this module. ``Tracer.installed()`` wraps
the public functions of each layer by replacing every module attribute that
refers to them, so a caller that imported a name (``from .network import
train``) looks the wrapper up too. Spans live in flat lists in memory and are
written out once, when the run ends.

A span nested directly inside a span of the same name (``NormalizedLoss``
delegating to ``TaylorLossParams``) adds to that layer's self time but is not
counted as another call.
"""

import contextlib
import csv
import sys
import time

import numpy as np

# (span name, module, attribute): attribute may be "Class.method"
FUNCTIONS = [
    ("cli.main_entry", "losslearn.cli", "main_entry"),
    ("search.meta_train", "losslearn.search", "meta_train"),
    ("search.run_generation", "losslearn.search", "run_generation"),
    ("bench.run_benchmark", "losslearn.bench", "run_benchmark"),
    ("bench.run_single_training", "losslearn.bench", "run_single_training"),
    ("bench.compute_ranks", "losslearn.bench", "compute_ranks"),
    ("cma.ask", "losslearn.cma", "CmaState.ask"),
    ("cma.tell", "losslearn.cma", "CmaState.tell"),
    ("taylor.normalize", "losslearn.taylor", "normalize"),
    ("taylor.load_loss", "losslearn.taylor", "load_loss"),
    ("taylor.batch_value", "losslearn.taylor", "TaylorLossParams.batch_value"),
    ("taylor.batch_grad", "losslearn.taylor", "TaylorLossParams.batch_grad"),
    ("taylor.batch_value", "losslearn.taylor", "NormalizedLoss.batch_value"),
    ("taylor.batch_grad", "losslearn.taylor", "NormalizedLoss.batch_grad"),
    ("network.train", "losslearn.network", "train"),
    ("network.accuracy", "losslearn.network", "accuracy"),
    ("network.init", "losslearn.network", "init"),
    ("datasets.dataset_from_selector", "losslearn.datasets", "dataset_from_selector"),
    ("datasets.split", "losslearn.datasets", "split"),
    ("datasets.load_idx", "losslearn.datasets", "load_idx"),
    ("noise.corrupt", "losslearn.noise", "corrupt"),
]

# (metric, unit); the order is the order BENCHMARK.json lists them in
PER_LAYER = [
    ("taylor.batch_value.calls", "count"),
    ("taylor.batch_value.self_s", "s"),
    ("taylor.batch_grad.calls", "count"),
    ("taylor.batch_grad.self_s", "s"),
    ("taylor.normalize.calls", "count"),
    ("taylor.normalize.total_s", "s"),
    ("taylor.load_loss.self_s", "s"),
    ("reference.batch_value.calls", "count"),
    ("reference.batch_value.self_s", "s"),
    ("reference.batch_grad.calls", "count"),
    ("reference.batch_grad.self_s", "s"),
    ("network.train.calls", "count"),
    ("network.train.self_s", "s"),
    ("network.train.p50_ms", "ms"),
    ("network.train.p90_ms", "ms"),
    ("network.train.steps", "count"),
    ("network.step_ms", "ms"),
    ("network.accuracy.calls", "count"),
    ("network.accuracy.self_s", "s"),
    ("network.init.self_s", "s"),
    ("datasets.dataset_from_selector.calls", "count"),
    ("datasets.dataset_from_selector.self_s", "s"),
    ("datasets.split.calls", "count"),
    ("datasets.split.self_s", "s"),
    ("datasets.load_idx.self_s", "s"),
    ("noise.corrupt.self_s", "s"),
    ("cma.ask.calls", "count"),
    ("cma.ask.self_s", "s"),
    ("cma.tell.self_s", "s"),
    ("search.meta_train.self_s", "s"),
    ("search.run_generation.calls", "count"),
    ("search.jobs_diverged", "count"),
    ("search.candidates_degenerate", "count"),
    ("bench.run_benchmark.self_s", "s"),
    ("bench.run_single_training.self_s", "s"),
    ("bench.compute_ranks.self_s", "s"),
    ("bench.jobs_diverged", "count"),
    ("cli.main_entry.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _resolve(module, attribute):
    owner = sys.modules[module]
    if "." in attribute:
        cls_name, method = attribute.split(".")
        owner = getattr(owner, cls_name)
        return owner, method, owner.__dict__[method]
    return owner, attribute, getattr(owner, attribute)


def _targets():
    """Yield (span name, owner, attribute, original) for every lookup site."""
    import losslearn.reference as reference

    for name, module, attribute in FUNCTIONS:
        owner, attr, original = _resolve(module, attribute)
        if isinstance(owner, type):
            yield name, owner, attr, original
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "losslearn":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    yield name, mod, key, original
    for cls in vars(reference).values():
        if isinstance(cls, type) and issubclass(cls, reference._Loss):
            for method in ("batch_value", "batch_grad"):
                if method in cls.__dict__:
                    yield f"reference.{method}", cls, method, cls.__dict__[method]


class Tracer:
    """In-memory spans: name, start, end, parent span, pass id."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.passes = []
        self.returned_none = []
        self._stack = []
        self.pass_id = -1

    def _wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, passes, nones, stack = (
            self.parents, self.passes, self.returned_none, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            passes.append(self.pass_id)
            ends.append(0.0)
            nones.append(False)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            nones[idx] = result is None
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, pass_id):
        """Wrap every target for the duration of one pass, then restore it."""
        self.pass_id = pass_id
        patched = []
        try:
            for name, owner, attr, original in _targets():
                setattr(owner, attr, self._wrap(name, original))
                patched.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["span", "name", "start", "end", "parent", "pass"])
            for i, row in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.passes)
            ):
                name, start, end, parent, pass_id = row
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, pass_id])

    def _arrays(self):
        names = np.array(self.names, dtype=object)
        duration = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        nested = parents >= 0
        child_time = np.zeros(len(duration))
        np.add.at(child_time, parents[nested], duration[nested])
        parent_names = np.where(nested, names[np.maximum(parents, 0)], None)
        return names, duration, duration - child_time, parent_names

    def layer_metrics(self, passes, counts):
        """Per-pass per-layer metrics over ``passes`` traced passes.

        ``counts`` holds per-pass values read from the program's outputs
        (diverged jobs) and the measured tracing overhead.
        """
        names, duration, self_time, parent_names = self._arrays()
        outermost = parent_names != names

        def calls(name):
            return float(np.sum((names == name) & outermost)) / passes

        def self_s(name):
            return float(np.sum(self_time[names == name])) / passes

        train_ms = duration[names == "network.train"] * 1e3
        grads = (names == "taylor.batch_grad") | (names == "reference.batch_grad")
        steps = float(np.sum(grads & (parent_names == "network.train"))) / passes
        degenerate = (names == "taylor.normalize") & np.array(self.returned_none)

        values = {
            "taylor.normalize.total_s": float(
                np.sum(duration[names == "taylor.normalize"])
            ) / passes,
            "network.train.p50_ms": _percentile(train_ms, 50),
            "network.train.p90_ms": _percentile(train_ms, 90),
            "network.train.steps": steps,
            "network.step_ms": self_s("network.train") * 1e3 / steps if steps else 0.0,
            "search.candidates_degenerate": float(np.sum(degenerate)) / passes,
        }
        values.update(counts)
        for metric, _unit in PER_LAYER:
            if metric not in values:
                layer, kind = metric.rsplit(".", 1)
                values[metric] = calls(layer) if kind == "calls" else self_s(layer)
        return values

    def self_shares(self, traced_wall):
        """Self time of each span name as a share of the traced wall time."""
        names, _duration, self_time, _parents = self._arrays()
        totals = {}
        for name, own in zip(names, self_time):
            totals[name] = totals.get(name, 0.0) + own
        return {
            name: total / traced_wall
            for name, total in sorted(totals.items(), key=lambda kv: -kv[1])
        }


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0
