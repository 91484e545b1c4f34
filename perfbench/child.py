"""One workload pass in a fresh interpreter, started by run.py.

    python3 perfbench/child.py MODE WORKLOAD SEED OUT_DIR

MODE is one of

* ``setup``: import the engine and build the inputs, nothing else;
* ``run``: set up, run the job with an empty product memo, then again with
  the memo kept, and check both outputs;
* ``cold``: set up and run the job once, untraced;
* ``traced``: set up, wrap the engine's public functions, run the job once
  and report the per-layer metrics; the spans go to OUT_DIR;
* ``coverage``: match the wrappers' call counts against cProfile on a short
  run that reaches every binding of the coverage targets.

The last line of stdout is one JSON object.  ``setup_s`` runs from the
first statement of this script, before the engine and the workloads are
imported, until the inputs are built; interpreter start-up is left out.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402  (imports are part of setup_s)
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

REFERENCE = Path(__file__).with_name("reference.json")


def _timed_job(workload, inputs):
    """(seconds, outputs or None, error text or None)."""
    start = time.perf_counter()
    try:
        outputs = workload.job(inputs)
    except Exception:  # a crashing job is a failed check, not a harness error
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, outputs, None


def _checked(workload, outputs, error, reference) -> dict:
    if error is not None:
        return {"attempted": 1, "failed": 1, "notes": [error]}
    try:
        attempted, failed, notes = workload.check(outputs, reference)
    except (KeyError, TypeError, ValueError):
        return {"attempted": 1, "failed": 1, "notes": [traceback.format_exc()]}
    return {"attempted": attempted, "failed": failed, "notes": notes}


def _merge(*checks) -> dict:
    return {"attempted": sum(c["attempted"] for c in checks),
            "failed": sum(c["failed"] for c in checks),
            "notes": [n for c in checks for n in c["notes"]]}


def _coverage_exercise():
    """Short calls through every module that binds a coverage target."""
    from h3orbifold import primaries, relations, structure, symmetry, vertex
    from workloads import run_cli
    run_cli(["span", "--group", "s3", "--max-weight", "5", "--format", "json"])
    run_cli(["char", "--which", "sgn", "--order", "12", "--check", "--format", "json"])
    run_cli(["product", "--u", "a1(-1)", "--n", "0", "--v", "a1(-2)", "--format", "json"])
    relations.verify_relation(*relations.default_instances()[0])
    primaries.verify_primaries("H2")
    symmetry.verify_generator_translation(0, 1)
    structure.check_decomposition("D6_1", (0, 0, 0, 0, 1, 1))
    structure.det_A(6)
    s = symmetry.gen("omega1_0", 0)
    vertex.check_skew_symmetry(s, s, 0)


def main() -> int:
    mode, name, seed, out_dir = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    workload = WORKLOADS[name]
    import h3orbifold
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(h3orbifold.__file__).resolve().parents:
        print(f"h3orbifold imported from {h3orbifold.__file__}, not {src}",
              file=sys.stderr)
        return 2
    inputs = workload.setup(seed)
    result = {"setup_s": time.perf_counter() - T_START}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    if mode == "coverage":
        import spans
        rows = spans.coverage_check(_coverage_exercise)
        missed = [f"{n}: wrappers saw {w} calls, cProfile {p}"
                  for n, w, p in rows if w != p]
        result.update(attempted=len(rows), failed=len(missed), notes=missed)
        result["coverage"] = rows
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "traced":
        import spans
        tracer = spans.Tracer(f"{name}-seed{seed}-{time.time_ns()}")
        tracer.install()
    job_s, outputs, error = _timed_job(workload, inputs)
    result["job_s"] = job_s
    if tracer is not None:
        result["layers"] = tracer.summarize()
        tracer.write_spans(out_dir / f"spans-{name}-seed{seed}.jsonl")
    reference = json.loads(REFERENCE.read_text())
    checks = [_checked(workload, outputs, error, reference)]
    if mode == "run":
        warm_s, outputs, error = _timed_job(workload, inputs)
        result["warm_job_s"] = warm_s
        checks.append(_checked(workload, outputs, error, reference))
        import resource
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(_merge(*checks))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
