"""The deep-span script (tools/deep_spans.py) measures one span per child;
its per-span function runs here at a weight under the cap."""

import importlib.util
from pathlib import Path

import pytest

from h3orbifold import structure
from h3orbifold.structure import S3_GENERATOR_IDS, span_dims

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "deep_spans.py"


def load_deep_spans():
    spec = importlib.util.spec_from_file_location("deep_spans", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_deep_span_record_at_weight_6():
    deep = load_deep_spans()
    assert {name for name, _, _ in deep.SPANS} == set(deep.SETS)
    cap = structure.MAX_SPAN_WEIGHT
    record = deep.measure("s3", "omega3(0,1,2)", 6)
    assert structure.MAX_SPAN_WEIGHT == cap  # not lowered, and 6 is under it
    assert set(record) == {"set", "drop", "weight", "seconds", "rss_mb", "dims"}
    assert (record["set"], record["drop"], record["weight"]) == ("s3", "omega3(0,1,2)", 6)
    assert record["seconds"] >= 0 and record["rss_mb"] > 0
    rest = [g for g in S3_GENERATOR_IDS if str(g) != "omega3(0,1,2)"]
    report = span_dims(rest, 6, "S3")
    assert record["dims"] == [report.dims_spanned[w] for w in range(7)]
    # the dropped weight-6 generator is missed at weight 6 first
    assert report.first_deficit() == 6
    with pytest.raises(ValueError):
        deep.measure("s3", "omega9(0)", 6)
