"""Write reference.json: the engine's outputs that every benchmark run is
compared against exactly.

    PYTHONPATH=src python3 perfbench/freeze.py

Run it only at a commit whose outputs are known good; the committed file was
written at the commit that introduced the benchmark, whose engine is the seed
engine.  It records the span dimensions of the span workload, every verify
entry (the same for every ``--seed`` the workload can draw), ``det_A`` for
a = 6..40, every decomposition, the digest of every character series a seed
can draw and the quantum-dimension classification of every module a seed
can draw.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads as wl


def _require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"unexpected output: {what}")


def main() -> None:
    span = {}
    workload = wl.WORKLOADS["span-z3"]
    rc, payload = workload.job(workload.setup(0))
    _require(rc == 0 and payload["matched"], "span-z3")
    span[workload.group] = {k: payload[k] for k in ("dims_spanned", "dims_target")}

    verify = wl.WORKLOADS["verify"]
    (rc, payload), dets, decomps = verify.job(verify.setup(0))
    _require(rc == 0, "verify")
    for cli_seed in wl.VERIFY_CLI_SEEDS:
        rc, other = wl.run_cli(["verify", "--suite", "all", "--seed", str(cli_seed),
                                "--format", "json"])
        _require(rc == 0 and other["results"] == payload["results"], cli_seed)
    ref_verify = {
        "results": payload["results"],
        "det_A": {str(a): str(v) for a, v in dets.items()},
        "decompositions": {f"{rel}{list(idx)}": wl.Verify.decomposition_record(r)
                           for rel, idx, r in decomps},
    }

    series = {}
    qdim = {}
    chars = [(which, "") for which in ("s3", "z3", "sgn", "st")]
    chars += [("fock", w) for w in wl.FOCK_WEIGHTS]
    chars += [("theta", w) for w in wl.THETA_WEIGHTS]
    chars += [("sigma", w) for w in wl.SIGMA_WEIGHTS]
    chars += [("w-free", t) for t in wl.W_FREE_TYPES]
    for which, weights in chars:
        rc, payload = wl.run_cli(wl.char_argv(which, weights))
        _require(rc == 0 and payload["burnside"], (which, weights))
        series[wl.series_key(which, weights)] = wl.digest(payload["series"])
    modules = ([f"fock:{w}" for w in wl.FOCK_WEIGHTS]
               + [f"theta:{w}" for w in wl.THETA_WEIGHTS]
               + [f"sigma:{w}" for w in wl.SIGMA_WEIGHTS] + ["sgn", "st"])
    for module in modules:
        rc, payload = wl.run_cli(wl.qdim_argv(module))
        _require(rc == 0, module)
        qdim[module] = payload["classification"]

    reference = {"span": span, "verify": ref_verify,
                 "char": {"series": series, "qdim_classification": qdim}}
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
