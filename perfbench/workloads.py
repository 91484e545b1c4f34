"""The three benchmark workloads: inputs from the seed, the job, and the
comparison of its outputs against the frozen reference.

Every workload drives the program through its public API, mostly through
``h3orbifold.cli.main`` with ``--format json``, the same calls ``h3orb``
makes.  Functions are looked up on their modules at call time, so the
tracing wrappers in ``spans.py`` see the calls.

A workload object has three methods:

* ``setup(seed)`` builds the inputs; it is timed as part of ``setup_s``;
* ``job(inputs)`` does the work and returns the raw outputs; it is timed as
  ``job_s`` (first pass, empty product memo) and ``warm_job_s`` (second pass
  in the same process);
* ``check(outputs, reference)`` returns ``(attempted, failed, notes)``, one
  check per certified weight, verify entry, ``det_A`` value, decomposition,
  character series or numeric identity.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

#: highest-weight candidates drawn by the seed; the reference holds the
#: series of every candidate, so any seed can be checked exactly
FOCK_WEIGHTS = ("0,0,0", "1/2,1/3,1/4", "1,0,-1", "2/3,-1/5,3/7",
                "1/6,1/6,1/6", "-3/4,1/2,0", "5/3,2/5,-1/2", "1/9,2/9,4/9")
THETA_WEIGHTS = ("0,0", "1/2,1/3", "1,-1", "2/3,1/5", "1/6,1/6", "-3/4,0",
                 "5/3,2/5", "1/9,4/9")
SIGMA_WEIGHTS = ("0", "1/2", "1/3", "-1", "2/3", "1/6", "-3/4", "5/3")

#: the two minimal generating types of the paper
W_FREE_TYPES = ("1,2,3,4,5,6,6", "1,2,3,3,3,4,5,5,5")

#: ``h3orb verify --seed`` values, picked by the workload seed modulo their
#: number, so that consecutive seeds cycle through them.  The axiom suite's
#: work depends on its seed: over seeds 0..59 the verify job peaks between
#: 37.9 and 67.1 MB (ru_maxrss, Python 3.11).  These are the seeds whose job
#: peaks within 1 % of the median (44.9 MB), so that every workload seed does
#: about the same work
VERIFY_CLI_SEEDS = (2, 5, 13, 14, 15, 21, 23, 30, 34, 39, 44, 52, 58)

CHAR_ORDER = 200
DET_A_ARGS = tuple(range(6, 41, 2))

#: quantum dimensions the CLI itself checks, and its 1 % tolerance
QDIM_EXPECTED = {"fock": 6.0, "sgn": 1.0, "st": 2.0}
QDIM_REL_TOL = 0.01
#: the three identities ``h3orb modular`` checks; the tests hold both the
#: identity and its quadrature to this tolerance
MODULAR_IDENTITIES = ["gauss-eta-1", "gauss-eta-2", "gauss-eta-3"]
MODULAR_TOL = 1e-9


def _sorted_tuples(arity: int, max_total: int):
    """All non-decreasing index tuples of the given arity and sum <= max_total."""
    def rec(prefix, lo, left):
        if len(prefix) == arity:
            yield tuple(prefix)
            return
        for i in range(lo, left + 1):
            yield from rec(prefix + [i], i, left - i)
    return list(rec([], 0, max_total))


DECOMPOSITIONS = ([("D5", t) for t in _sorted_tuples(5, 5)]
                  + [(rel, t) for rel in ("D6_1", "D6_2")
                     for t in _sorted_tuples(6, 3)])


def run_cli(argv) -> tuple:
    """Run ``h3orb argv`` in-process; returns (exit code, parsed JSON)."""
    from h3orbifold import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, json.loads(buf.getvalue())


def digest(obj) -> str:
    """SHA-256 of the canonical JSON text of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _parse_all(argvs) -> None:
    from h3orbifold import cli
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)


class Span:
    """``h3orb span --group G --max-weight W``: exact strong-span closure."""

    def __init__(self, group: str, max_weight: int):
        self.group = group
        self.max_weight = max_weight

    def setup(self, seed: int):
        argv = ["span", "--group", self.group, "--max-weight",
                str(self.max_weight), "--format", "json"]
        _parse_all([argv])
        return argv

    def job(self, argv):
        return run_cli(argv)

    def check(self, outputs, reference):
        rc, payload = outputs
        ref = reference["span"][self.group]
        notes = []
        failed = 0
        for w in range(self.max_weight + 1):
            key = str(w)
            got = (payload["dims_spanned"].get(key), payload["dims_target"].get(key))
            want = (ref["dims_spanned"][key], ref["dims_target"][key])
            if rc != 0 or got != want:
                failed += 1
                notes.append(f"weight {w}: got {got}, want {want}, exit {rc}")
        return self.max_weight + 1, failed, notes


class Verify:
    """``h3orb verify --suite all --seed S`` plus ``det_A`` and the
    decomposition checks the CLI does not expose."""

    def setup(self, seed: int):
        cli_seed = VERIFY_CLI_SEEDS[seed % len(VERIFY_CLI_SEEDS)]
        argv = ["verify", "--suite", "all", "--seed", str(cli_seed),
                "--format", "json"]
        _parse_all([argv])
        return argv, DET_A_ARGS, DECOMPOSITIONS

    def job(self, inputs):
        from h3orbifold import structure
        argv, det_args, decompositions = inputs
        verify = run_cli(argv)
        dets = {a: structure.det_A(a) for a in det_args}
        decomps = [(rel, idx, structure.check_decomposition(rel, idx))
                   for rel, idx in decompositions]
        return verify, dets, decomps

    @staticmethod
    def decomposition_record(report) -> dict:
        def coeffs(d):
            return sorted([str(k), str(v)] for k, v in d.items())
        return {"ok": report.ok,
                "coeffs": digest([coeffs(report.quadratic),
                                  coeffs(report.quartic),
                                  coeffs(report.cubic)])}

    def check(self, outputs, reference):
        (rc, payload), dets, decomps = outputs
        ref = reference["verify"]
        notes = []
        attempted, failed = 1, 0
        if len(payload["results"]) != len(ref["results"]):
            failed += 1
            notes.append(f"verify ran {len(payload['results'])} checks, "
                         f"want {len(ref['results'])}")
        got_results = {(r["id"], tuple(r["params"])): r for r in payload["results"]}
        for want in ref["results"]:
            attempted += 1
            got = got_results.get((want["id"], tuple(want["params"])))
            if rc != 0 or got != want:
                failed += 1
                notes.append(f"verify {want['id']}{want['params']}: {got}")
        for a, value in dets.items():
            attempted += 1
            if str(value) != ref["det_A"][str(a)]:
                failed += 1
                notes.append(f"det_A({a}) = {value}")
        for rel, idx, report in decomps:
            attempted += 1
            key = f"{rel}{list(idx)}"
            if self.decomposition_record(report) != ref["decompositions"][key]:
                failed += 1
                notes.append(f"check_decomposition {key}")
        return attempted, failed, notes


class Char:
    """``h3orb char`` at order 200 for every module family with ``--check``,
    then ``h3orb modular --quadrature`` and ``h3orb qdim``."""

    def setup(self, seed: int):
        rng = random.Random(seed)
        fock = rng.choice(FOCK_WEIGHTS)
        theta = rng.choice(THETA_WEIGHTS)
        sigma = rng.choice(SIGMA_WEIGHTS)
        chars = [(which, "") for which in ("s3", "z3", "sgn", "st")]
        chars += [("fock", fock), ("theta", theta), ("sigma", sigma)]
        chars += [("w-free", t) for t in W_FREE_TYPES]
        calls = [(series_key(which, weights), char_argv(which, weights))
                 for which, weights in chars]
        calls.append(("modular", ["modular", "--quadrature", "--format=json"]))
        for module in (f"fock:{fock}", f"theta:{theta}", f"sigma:{sigma}", "sgn", "st"):
            calls.append((module, qdim_argv(module)))
        _parse_all(argv for _, argv in calls)
        return calls

    def job(self, calls):
        return [(key, argv[0], run_cli(argv)) for key, argv in calls]

    def check(self, outputs, reference):
        ref = reference["char"]
        notes = []
        attempted = failed = 0
        for key, verb, (rc, payload) in outputs:
            if verb == "char":
                attempted += 2
                if rc != 0 or digest(payload["series"]) != ref["series"].get(key):
                    failed += 1
                    notes.append(f"char {key}: series differs")
                if payload.get("burnside") is not True:
                    failed += 1
                    notes.append(f"char {key}: burnside cross-check failed")
            elif verb == "modular":
                attempted += 1
                identities = [r["identity"] for r in payload["reports"]]
                if identities != MODULAR_IDENTITIES:
                    failed += 1
                    notes.append(f"modular reported {identities}")
                for report in payload["reports"]:
                    for err in ("rel_err", "quadrature_rel_err"):
                        attempted += 1
                        if rc != 0 or not report.get(err, math.inf) <= MODULAR_TOL:
                            failed += 1
                            notes.append(f"{report['identity']} {err}: {report.get(err)}")
            else:
                attempted += 1
                kind = key.partition(":")[0]
                ok = rc == 0 and payload["classification"] == ref["qdim_classification"].get(key)
                # as in the CLI, only a finite limit is held to its expected value
                if ok and payload["classification"] == "finite" and kind in QDIM_EXPECTED:
                    expected = QDIM_EXPECTED[kind]
                    limit = payload["limit"]
                    ok = limit is not None and abs(limit - expected) <= QDIM_REL_TOL * expected
                if not ok:
                    failed += 1
                    notes.append(f"qdim {key}: {payload}")
        return attempted, failed, notes


def series_key(which: str, weights: str) -> str:
    return f"{which}:{weights}" if weights else which


# "--opt=value" keeps argparse from reading "-3/4,0" as an option
def char_argv(which: str, weights: str) -> list:
    return (["char", f"--which={which}", f"--order={CHAR_ORDER}", "--check",
             "--format=json"] + ([f"--weights={weights}"] if weights else []))


def qdim_argv(module: str) -> list:
    return ["qdim", f"--module={module}", "--format=json"]


WORKLOADS = {
    "span-z3": Span("z3", 10),
    "verify": Verify(),
    "char": Char(),
}
