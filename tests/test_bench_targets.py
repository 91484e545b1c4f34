"""The benchmark tracer (perfbench/spans.py) wraps engine functions by name;
every name it lists must still resolve, or a traced benchmark run crashes."""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    spans = load_spans()
    targets = spans.TIMED + spans.COUNTED + spans.COVERAGE_TARGETS
    assert targets
    for module, attr, _ in targets:
        importlib.import_module(module)
        _, original = spans._lookup(module, attr)
        assert callable(original), (module, attr)
