"""The benchmark's tracer still finds every function it is meant to wrap."""

import importlib.util
from pathlib import Path

import losslearn.cli  # noqa: F401 - loads every module the tracer wraps


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_resolves_every_traced_function():
    # a renamed or moved function would otherwise break only `--trace 1` runs
    spans = load_spans()
    targets = list(spans._targets())
    for name, module, attribute in spans.FUNCTIONS:
        original = spans._resolve(module, attribute)[2]
        assert any(t[0] == name and t[3] is original for t in targets), name
    names = {t[0] for t in targets}
    assert {"reference.batch_value", "reference.batch_grad"} <= names
