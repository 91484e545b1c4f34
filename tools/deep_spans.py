"""Strong spans past the CLI cap, each in a fresh interpreter.

    PYTHONPATH=src python3 tools/deep_spans.py

Runs the fixed list ``SPANS`` one span at a time, each in a child
interpreter that raises ``structure.MAX_SPAN_WEIGHT`` to the span's weight
in that process only, and prints one JSON line per span: the generating
set, the dropped generator (or null), the weight, the wall seconds of
``span_dims``, the child's peak resident memory (``ru_maxrss``, MB,
interpreter included) and the spanned dims at weights 0..weight.  It takes
no options, so the list and its output are comparable between two trees.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from h3orbifold import structure

#: the generating sets by name: (group, generator ids)
SETS = {
    "s3": ("S3", structure.S3_GENERATOR_IDS),
    "s3-diagonal": ("S3", structure.S3_DIAGONAL_GENERATOR_IDS),
    "z3": ("Z3", structure.Z3_GENERATOR_IDS),
}

#: (set, dropped generator or None, weight), in the order they run
SPANS = [
    ("s3", None, 11),
    ("s3", None, 12),
    ("s3", "omega3(0,1,2)", 12),
    ("s3-diagonal", None, 15),
    ("z3", None, 14),
]


def measure(name: str, drop: str | None, weight: int) -> dict:
    """Span the set name without drop up to weight in this process, the cap
    raised to weight if it is lower, and return the span's JSON record."""
    group, ids = SETS[name]
    gens = [g for g in ids if str(g) != drop]
    if drop is not None and len(gens) == len(ids):
        raise ValueError(f"{drop} is not in the {name} generating set")
    structure.MAX_SPAN_WEIGHT = max(structure.MAX_SPAN_WEIGHT, weight)
    start = time.perf_counter()
    report = structure.span_dims(gens, weight, group)
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"set": name, "drop": drop, "weight": weight,
            "seconds": round(seconds, 2), "rss_mb": round(rss_mb, 1),
            "dims": [report.dims_spanned[w] for w in range(weight + 1)]}


def main() -> int:
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here), str(here.parent / "src")]))
    for span in SPANS:
        code = f"import json, deep_spans; print(json.dumps(deep_spans.measure(*{span!r})))"
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               stdout=subprocess.PIPE, text=True, check=True)
        print(child.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
