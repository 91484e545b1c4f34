"""Benchmark of the h3orbifold engine, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; it imports the engine from ``src/``.
The workloads (``workloads.py``) and metrics are listed in BENCHMARK.json.

Each job runs in a fresh interpreter (``child.py``), so the product memo and
the imports start cold, as in one ``h3orb`` call; children run one after
another, never in parallel.  The run is one closed-loop caller: it starts the
next child when the previous one has exited, as long as a child as long as
the last one still ends within ``--seconds`` (at least one job).  Each
untraced child builds its inputs from its own seed, the next of a run of
consecutive integers that starts at a value drawn from ``--seed``; so a run's
medians cover several inputs, and the same ``--seed`` gives the same inputs.

``--trace 0`` reports the end-to-end metrics: the medians of ``job_s`` (empty
memo), ``warm_job_s`` (the same job again in the same process, memo kept),
``peak_rss_mb`` (``ru_maxrss`` of the child) and ``setup_s`` (in the child,
from its first statement until the engine is imported and the inputs are
built; at least ``SETUP_SAMPLES`` samples).  ``--trace 1`` reports the
per-layer metrics from children whose engine functions are wrapped from
outside (``spans.py``), alternating with untraced children for
``trace.overhead_s``, all on the first child seed; it also runs the
binding-coverage check and compares the exact counts of every traced child,
of which there are at least two.
Every output is checked against ``reference.json``; a mismatch is a failed
check and is counted, not raised.

Stdout ends with a report line (provenance, sample counts, percentiles) and
then the result line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` prints a table of the end-to-end metrics of every workload
instead, with ``fail_ratio``.
Exit code 2 means the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 15
#: a run must end within 180 s; children get what is left of this
RUN_DEADLINE_S = 170.0
#: exact per-layer counts that two traced runs of the same code must repeat
EXACT_SUFFIXES = (".calls", "memo_entries", "memo_empty_share", "useful_ratio",
                  "max_coeff_bits", "stored_terms", "terms_out", "Scalar.ops")


class HarnessError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.deadline = self.started + seconds
        self.child_seeds = itertools.count(random.Random(seed).randrange(1 << 30))

    def spawn(self, mode: str, seed: int) -> dict:
        """Run one child to completion and return its result line."""
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise HarnessError("run deadline exceeded")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        argv = [sys.executable, str(HERE / "child.py"), mode, self.workload,
                str(seed), str(OUT)]
        try:
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{mode} child exceeded the run deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(f"{mode} child exited with {proc.returncode}:\n"
                               f"{proc.stderr.strip()}")
        return json.loads(lines[-1])

    def timed_spawn(self, mode: str, seed: int) -> tuple:
        """(seconds the child took, its result line)."""
        start = time.perf_counter()
        child = self.spawn(mode, seed)
        return time.perf_counter() - start, child

    def fits(self, seconds: float) -> bool:
        """Whether work taking this long still ends within the run."""
        return time.perf_counter() + seconds <= self.deadline


def summary(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are fewer than 20 samples), and the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "p": None, "value_p": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(n * p / 100)  # nearest-rank percentile
        if n - rank >= 10:
            out["p"] = p
            out["value_p"] = values[rank - 1]
            break
    return out


def untraced_run(runner: Runner) -> tuple:
    """(samples per end-to-end metric, attempted, failed, notes, extra report)."""
    # byte-compiles the engine; not a sample
    setup_took, _ = runner.timed_spawn("setup", next(runner.child_seeds))
    children, seeds = [], []
    while True:
        seeds.append(next(runner.child_seeds))
        took, child = runner.timed_spawn("run", seeds[-1])
        children.append(child)
        top_up = max(0, SETUP_SAMPLES - len(children) - 1) * setup_took
        if not runner.fits(took + top_up):
            break
    setups = [c["setup_s"] for c in children]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("setup", next(runner.child_seeds))["setup_s"])
    samples = {"setup_s": setups}
    for key in ("job_s", "warm_job_s", "peak_rss_mb"):
        samples[key] = [c[key] for c in children]
    return samples, *_tally(children), {"child_seeds": seeds}


def traced_run(runner: Runner) -> tuple:
    """(samples per per-layer metric, attempted, failed, notes, extra report)."""
    seed = next(runner.child_seeds)
    coverage = runner.spawn("coverage", seed)
    untraced, traced = [], []
    while True:
        cold_took, cold = runner.timed_spawn("cold", seed)
        traced_took, child = runner.timed_spawn("traced", seed)
        untraced.append(cold)
        traced.append(child)
        if len(traced) >= 2 and not runner.fits(cold_took + traced_took):
            break
    samples = {k: [c["layers"][k] for c in traced] for k in traced[0]["layers"]}
    samples["trace.overhead_s"] = [statistics.median(c["job_s"] for c in traced)
                                   - statistics.median(c["job_s"] for c in untraced)]
    attempted, failed, notes = _tally([coverage] + untraced + traced)
    for child in traced[1:]:
        attempted += 1
        differing = [k for k in samples if k.endswith(EXACT_SUFFIXES)
                     and child["layers"][k] != traced[0]["layers"][k]]
        if differing:
            failed += 1
            notes.append(f"exact counts differ between traced runs: {differing}")
    extra = {"coverage": coverage["coverage"], "traced_children": len(traced),
             "child_seeds": [seed]}
    return samples, attempted, failed, notes, extra


def _tally(children) -> tuple:
    return (sum(c["attempted"] for c in children),
            sum(c["failed"] for c in children),
            [n for c in children for n in c["notes"]])


def provenance(seed: int) -> dict:
    """Python version, processors, commit (when the checkout has .git) and a
    digest of the engine's sources, which identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "commit": _git_commit(),
            "src_sha256": digest.hexdigest(),
            "seed": seed}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple:
    """(report, result) for one run; result holds the metric medians."""
    runner = Runner(workload, seed, seconds)
    if trace:
        samples, attempted, failed, notes, extra = traced_run(runner)
        wanted = spec["per_layer"]
    else:
        samples, attempted, failed, notes, extra = untraced_run(runner)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"workload": workload, "trace": int(trace),
              "provenance": provenance(seed),
              "fail_ratio": failed / attempted,
              "samples": {m["name"]: summary(samples[m["name"]]) for m in wanted},
              "wall_s": time.perf_counter() - runner.started,
              "failure_notes": notes[:20], **extra}
    return report, result


def _table(rows) -> str:
    lines = [f"{'workload':10s} {'metric':38s} {'median':>12s} {'unit':17s} "
             f"{'p(n>=10 beyond)':>16s} {'n':>3s}"]
    for workload, report, result in rows:
        for name, s in report["samples"].items():
            hi = "-" if s["p"] is None else f"p{s['p']:g}={s['value_p']:.4g}"
            unit = result["metrics"][name]["unit"]
            lines.append(f"{workload:10s} {name:38s} {s['median']:12.6g} {unit:17s} "
                         f"{hi:>16s} {s['n']:3d}")
        lines.append(f"{workload:10s} {'fail_ratio':38s} {report['fail_ratio']:12.6g} "
                     f"{'failed/attempted':17s} {'-':>16s} {result['attempted']:3d}")
    return "\n".join(lines)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "h3orbifold" / "__init__.py").is_file():
        print(f"no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    # subprocess.run kills and reaps the running child when this unwinds it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload == "all":
            rows = []
            for name in names:
                report, result = run_workload(spec, name, args.seed, args.seconds,
                                              bool(args.trace))
                rows.append((name, report, result))
                print(f"{name}: done in {report['wall_s']:.1f} s", file=sys.stderr)
            print(_table(rows))
            print(json.dumps({name: result for name, _, result in rows}))
            return 0
        report, result = run_workload(spec, args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"report": report, "result": result},
                                                 indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
