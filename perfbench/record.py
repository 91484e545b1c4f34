"""Append one point to trajectory.json: every workload run with seeds
1..RUNS untraced and once traced, from the root of a checkout.

    python3 perfbench/record.py --label NAME

For each end-to-end metric the point holds the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound.  A
spread above a third of its bound is flagged as unsteady.  A median worse
than the previous point's by more than the bound is flagged as well: on the
same code that means two sets of runs disagree, on a change a regression.
The per-layer values come from one traced run with seed 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
RUNS = 10


def _run(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return report, result


def _worse(metric: dict, new: float, old: float) -> bool:
    if metric["better"] == "lower":
        return new > old * (1 + metric["bound"])
    return new < old * (1 - metric["bound"])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    trajectory = (json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists()
                  else {"points": []})
    previous = trajectory["points"][-1] if trajectory["points"] else None
    point = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
             "run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    flagged = []
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for seed in range(1, RUNS + 1):
            report, result = _run(workload, seed, 0)
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
                  file=sys.stderr)
        entry = {"failed": failed}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            entry[name] = {"median": median, "q1": q1, "q3": q3,
                           "spread": spread, "bound": metric["bound"]}
            if spread > metric["bound"] / 3:
                flagged.append(f"unsteady: {workload} {name} spread {spread:.3f}")
            old = previous and previous["workloads"].get(workload, {}).get(name)
            if old and _worse(metric, median, old["median"]):
                flagged.append(f"worse than {previous['label']}: {workload} {name} "
                               f"{old['median']:.4g} -> {median:.4g}")
        traced_report, traced = _run(workload, 1, 1)
        entry["failed"] += traced["failed"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][workload] = entry
        point["provenance"] = {k: v for k, v in traced_report["provenance"].items()
                               if k != "seed"}
    trajectory["points"].append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    for line in flagged:
        print(line, file=sys.stderr)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
