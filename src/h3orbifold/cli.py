"""Command-line front end: verification suites, spans, characters, and the
numeric modular checks.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error.
All parameters are flags with documented defaults; no configuration files.
JSON goes to stdout with --format json, logs to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .fock import DEFAULT_TRUNCATION, enumerate_basis, FockState, parse_state
from .qseries import (MAX_SERIES_ORDER, burnside_trace, character_terms,
                      module_character, orbifold_character,
                      w_algebra_free_character)
from .modular import check_gauss_identity, qdim_estimate, DEFAULT_TOL
from .structure import MAX_SPAN_WEIGHT

SCHEMA = "h3orbifold-report/1"
DEFAULT_SEED = "H3S3"
#: largest decimal exponent a rational argument may carry ("1e1000"); a
#: larger one is rejected on the text, since ``Fraction`` expands it into
#: an exact integer before any range check (seconds at 10^6 digits)
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)")


def _int_range(lo, hi):
    """argparse type: an integer in lo..hi."""
    def parse(text):
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside {lo}..{hi}")
        return value
    parse.__name__ = "int"
    return parse


def _positive_float(text):
    """argparse type: a finite float above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite number")
    return value


def _rational(text):
    """Fraction(text); ValueError on a decimal exponent beyond
    MAX_DECIMAL_EXPONENT in size, found on the text before Fraction sees
    it."""
    match = _EXPONENT.search(text)
    if match:
        digits = match.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or \
                int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"exponent in {text!r} beyond "
                             f"{MAX_DECIMAL_EXPONENT} in size")
    return Fraction(text)


def _fractions(text):
    """Comma-separated rationals; ValueError on malformed or zero-denominator
    entries, or on a decimal exponent beyond MAX_DECIMAL_EXPONENT."""
    try:
        return tuple(_rational(w) for w in text.split(",")) if text else ()
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def _float(value):
    """float(value); ValueError where value is beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError("number too large for a float") from None


def _emit(payload, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


# -- verify --------------------------------------------------------------------


def _suite_relations(suite):
    from .relations import CATALOG, default_instances, verify_relation
    results = []
    for name, params in default_instances():
        spec = CATALOG[name]
        if spec.suite != suite:
            continue
        residual = verify_relation(name, params)
        results.append({
            "id": name,
            "params": list(params),
            "tag": spec.label,
            "status": spec.status,
            "pass": residual.is_zero(),
        })
    return results


def _suite_classical(rng):
    from .classical import cpoly_relation
    results = []
    for family, arity in (("D5C", 5), ("D6C1", 6), ("D6C2", 6)):
        ok = True
        worst = None
        for _ in range(50):
            idx = tuple(rng.randint(0, 3) for _ in range(arity))
            if not cpoly_relation(family, idx).is_zero():
                ok = False
                worst = idx
                break
        results.append({"id": family, "tag": "polynomial relation family",
                        "params": [], "status": "corrected" if family == "D6C2" else "as-printed",
                        "pass": ok, **({"counterexample": worst} if worst else {})})
    return results


def _suite_axioms(rng):
    from .vertex import check_borcherds, check_skew_symmetry
    results = []
    def rand_state(basis):
        out = FockState(3, basis)
        for _ in range(rng.randint(1, 3)):
            w = rng.randint(0, 4)
            mons = enumerate_basis(3, w)
            out._add_term(rng.choice(mons),
                          Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return out
    ok_skew = True
    for _ in range(100):
        basis = rng.choice(["a", "b"])
        u, v = rand_state(basis), rand_state(basis)
        n = rng.randint(-2, 2)
        if not check_skew_symmetry(u, v, n).is_zero():
            ok_skew = False
            break
    results.append({"id": "skew-symmetry", "tag": "vertex axiom", "params": [],
                    "status": "as-printed", "pass": ok_skew})
    ok_bor = True
    for _ in range(100):
        basis = rng.choice(["a", "b"])
        u, v, w = (rand_state(basis) for _ in range(3))
        p, q, r = (rng.randint(-2, 2) for _ in range(3))
        if not check_borcherds(u, v, w, p, q, r).is_zero():
            ok_bor = False
            break
    results.append({"id": "borcherds", "tag": "vertex axiom", "params": [],
                    "status": "as-printed", "pass": ok_bor})
    return results


def _suite_primaries(rng):
    from .primaries import verify_primaries
    results = []
    for family in ("S3", "Z3", "H2"):
        for check in verify_primaries(family):
            results.append({
                "id": f"{family}:{check.name}",
                "tag": f"primary generator of weight {check.weight_expected}",
                "params": [],
                "status": "see-catalog",
                "pass": check.ok,
            })
    return results


#: the verification suites in the order ``--suite all`` runs them; each takes
#: the shared random generator, so ``classical`` draws before ``axioms``
SUITES = {
    "s3-relations": lambda rng: _suite_relations("s3-relations"),
    "z3-relations": lambda rng: _suite_relations("z3-relations"),
    "classical": _suite_classical,
    "axioms": _suite_axioms,
    "primaries": _suite_primaries,
}


def cmd_verify(args, parser):
    rng = random.Random(args.seed)
    results = []
    for name, suite in SUITES.items():
        if args.suite in (name, "all"):
            results += suite(rng)
    results.sort(key=lambda r: (r["id"], r["params"]))
    all_pass = all(r["pass"] for r in results)
    payload = {"schema": SCHEMA, "command": "verify", "suite": args.suite,
               "seed": str(args.seed), "results": results, "pass": all_pass}
    lines = [f"{'PASS' if r['pass'] else 'FAIL'}  {r['id']}"
             f"{tuple(r['params']) if r['params'] else ''}  [{r['status']}]"
             for r in results]
    lines.append(f"{'all checks passed' if all_pass else 'FAILURES PRESENT'} "
                 f"({len(results)} checks)")
    _emit(payload, args.format, lines)
    return 0 if all_pass else 1


# -- span ----------------------------------------------------------------------


def _parse_generator(text):
    from .symmetry import GeneratorId
    name, _, idx = text.partition("(")
    if not idx.endswith(")"):
        raise ValueError(f"malformed generator {text!r}")
    indices = tuple(int(x) for x in idx[:-1].split(",") if x != "")
    return GeneratorId(name, indices)


def cmd_span(args, parser):
    from .structure import S3_GENERATOR_IDS, Z3_GENERATOR_IDS, span_dims
    gens = list(S3_GENERATOR_IDS if args.group == "s3" else Z3_GENERATOR_IDS)
    dropped = None
    if args.drop:
        try:
            dropped = _parse_generator(args.drop)
        except ValueError as exc:
            parser.error(str(exc))
        if dropped not in gens:
            parser.error(f"{args.drop} is not in the {args.group} generating set")
        gens.remove(dropped)
    report = span_dims(gens, args.max_weight, args.group.upper())
    payload = {
        "schema": SCHEMA, "command": "span", "group": args.group,
        "max_weight": args.max_weight,
        "generators": report.generators,
        "dropped": str(dropped) if dropped else None,
        "dims_spanned": {str(w): d for w, d in report.dims_spanned.items()},
        "dims_target": {str(w): d for w, d in report.dims_target.items()},
        "matched": report.all_matched,
        "first_deficit": report.first_deficit(),
    }
    lines = [f"strong span for {args.group} "
             f"({'full set' if not dropped else 'dropping ' + str(dropped)})"]
    for w in range(args.max_weight + 1):
        s, t = report.dims_spanned[w], report.dims_target[w]
        lines.append(f"  weight {w}: spanned {s:4d}  target {t:4d}"
                     f"  {'ok' if s == t else 'DEFICIT'}")
    lines.append("matched at all weights" if report.all_matched
                 else f"first deficit at weight {report.first_deficit()}")
    _emit(payload, args.format, lines)
    if dropped is not None:
        # demonstrating a deficit is the expected outcome
        return 0 if not report.all_matched else 1
    return 0 if report.all_matched else 1


# -- dims ----------------------------------------------------------------------


def cmd_dims(args, parser):
    chars = {"fock": burnside_trace((1, 1, 1), args.max_weight),
             "s3": orbifold_character("S3", args.max_weight),
             "z3": orbifold_character("Z3", args.max_weight)}
    rows = []
    for w in range(args.max_weight + 1):
        row = {"weight": w}
        for column, ch in chars.items():
            row[column] = int(ch.coefficient(ch.offset + w))
        rows.append(row)
    payload = {"schema": SCHEMA, "command": "dims",
               "max_weight": args.max_weight, "rows": rows}
    lines = ["weight  fock   s3-inv  z3-inv"]
    for r in rows:
        lines.append(f"{r['weight']:6d}  {r['fock']:5d}  {r['s3']:6d}  {r['z3']:6d}")
    _emit(payload, args.format, lines)
    return 0


# -- char ----------------------------------------------------------------------


def _series_payload(series, count=None):
    data = series.to_json()
    if count is not None:
        data["integer_slice"] = [str(c) for c in series.integer_slice(count)]
    return data


#: the ``char --which`` names of the orbifold characters
_ORBIFOLD_WHICH = {"s3": "S3", "z3": "Z3"}


def cmd_char(args, parser):
    try:
        weights = _fractions(args.weights)
    except ValueError as exc:
        parser.error(f"bad --weights: {exc}")
    order = args.order
    terms = ()
    if args.which == "w-free":
        if not weights or any(w < 1 or w.denominator != 1 for w in weights):
            parser.error("w-free requires --weights, positive integers")
        series = w_algebra_free_character([int(w) for w in weights], order)
    else:
        if not weights:
            weights = {"fock": (0, 0, 0), "theta": (0, 0),
                       "sigma": (0,)}.get(args.which, ())
        try:
            divisor, terms = character_terms(
                _ORBIFOLD_WHICH.get(args.which, args.which), weights)
        except ValueError as exc:
            parser.error(str(exc))
        if args.which in _ORBIFOLD_WHICH:
            series = orbifold_character(_ORBIFOLD_WHICH[args.which], order)
        else:
            series = module_character(args.which, order, weights=weights)

    checks = {}
    if args.check_burnside:
        from .qseries import fock_trace_series
        from .symmetry import GROUPS
        top = min(order, 6)
        ok = True
        traces: dict = {}
        for sigma in GROUPS["S3"]:
            direct = fock_trace_series(sigma, top)
            if direct != burnside_trace(sigma.cycle_type(), top):
                ok = False
            traces.setdefault(sigma.cycle_type(), []).append(direct)
        if terms and all(steps in traces for _, _, steps in terms):
            # the printed series against the direct traces, class-averaged;
            # a direct trace holds q^(-|steps|/24), the term q^offset
            parts = [direct.scale(Fraction(mult, divisor * len(traces[steps])))
                     .shift(offset + Fraction(sum(steps), 24))
                     for mult, offset, steps in terms
                     for direct in traces[steps]]
            if series != sum(parts[1:], parts[0]):
                ok = False
        checks["burnside"] = ok

    payload = {"schema": SCHEMA, "command": "char", "which": args.which,
               "series": _series_payload(series, count=order + 1), **checks}
    lines = [f"character {args.which}, offset q^({series.offset}), "
             f"lattice 1/{series.D}, order {series.order}"]
    lines.append("  " + " ".join(str(c) for c in series.integer_slice(min(order + 1, 13))))
    if checks:
        lines.append(f"  burnside cross-check: {'pass' if checks['burnside'] else 'FAIL'}")
    _emit(payload, args.format, lines)
    if checks and not all(checks.values()):
        return 1
    return 0


# -- qdim / modular -------------------------------------------------------------


def cmd_qdim(args, parser):
    kind, _, rest = args.module.partition(":")
    expected = {"fock": 6.0, "orb": 1.0, "sgn": 1.0, "st": 2.0}
    try:
        weights = _fractions(rest)
        t_list = [_float(t) for t in _fractions(args.t_list)]
        report = qdim_estimate(kind, t_list, weights=weights)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {"schema": SCHEMA, "command": "qdim", **report.to_json()}
    lines = [f"module {report.module}: {report.classification}"]
    for t, r in zip(report.t_values, report.ratios):
        lines.append(f"  t={t:<8g} ratio={r:.9g}")
    ok = True
    if report.classification == "finite":
        lines.append(f"  extrapolated limit: {report.limit_estimate:.6f}")
        if kind in expected:
            ok = abs(report.limit_estimate - expected[kind]) <= 0.01 * expected[kind]
            lines.append(f"  expected {expected[kind]}: {'pass' if ok else 'FAIL'}")
    else:
        lines.append(f"  growth exponent: {report.growth_exponent:.4f}")
    _emit(payload, args.format, lines)
    return 0 if ok else 1


def _parse_tau(text):
    """Accepts "i", "2i", "i/2", "3i/4", or "re,im"; bare numbers are taken
    as points on the imaginary axis.  ValueError for malformed text, a
    part beyond the float range or a decimal exponent beyond
    MAX_DECIMAL_EXPONENT."""
    if "," in text:
        re_, im = text.split(",")
        return complex(_float(_rational(re_)), _float(_rational(im)))
    text = text.strip().replace(" ", "")
    if "i" in text:
        num, _, den = text.partition("/")
        num = num.replace("i", "") or "1"
        if num == "-":
            num = "-1"
        mag = _rational(num) / (_rational(den) if den else 1)
        return complex(0, _float(mag))
    return complex(0, _float(_rational(text)))


def cmd_modular(args, parser):
    try:
        tau = _parse_tau(args.tau)
    except (ValueError, ZeroDivisionError):
        parser.error(f"cannot parse tau {args.tau!r}")
    reports = []
    for line in (1, 2, 3):
        try:
            reports.append(check_gauss_identity(line, tau, tol=args.tol,
                                                quadrature=args.quadrature))
        except ValueError as exc:
            parser.error(str(exc))
    all_pass = all(r.passed for r in reports)
    payload = {"schema": SCHEMA, "command": "modular",
               "reports": [r.to_json() for r in reports], "pass": all_pass}
    lines = [(f"{r.identity} at tau={args.tau}: rel_err={r.rel_err:.3e} "
              f"{'pass' if r.passed else 'FAIL'}") for r in reports]
    _emit(payload, args.format, lines)
    return 0 if all_pass else 1


# -- product --------------------------------------------------------------------


def cmd_product(args, parser):
    from .vertex import nth_product
    try:
        u = parse_state(args.u)
        v = parse_state(args.v)
        result = nth_product(u, args.n, v, weight_cap=MAX_SPAN_WEIGHT)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {"schema": SCHEMA, "command": "product",
               "u": str(u), "n": args.n, "v": str(v), "result": str(result)}
    _emit(payload, args.format, [str(result)])
    return 0


# -- manifest -------------------------------------------------------------------


def cmd_manifest(args, parser):
    from .relations import manifest
    entries = manifest()
    payload = {"schema": SCHEMA, "command": "manifest", "relations": entries}
    lines = [f"{e['id']:16s} [{e['status']:12s}] {e['tag']}" for e in entries]
    _emit(payload, args.format, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h3orb",
        description="exact computations in the rank-3 permutation orbifolds")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=[*SUITES, "all"])
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--seed", default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("span", help="graded dimensions of a strong span")
    p.add_argument("--group", default="s3", choices=["s3", "z3"])
    p.add_argument("--max-weight", type=_int_range(0, MAX_SPAN_WEIGHT), default=6)
    p.add_argument("--drop", default=None,
                   help="generator to remove, e.g. omega3(0,1,2)")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_span, parser=p)

    p = sub.add_parser("dims", help="graded dimension table")
    p.add_argument("--max-weight", type=_int_range(0, MAX_SERIES_ORDER),
                   default=DEFAULT_TRUNCATION)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_dims, parser=p)

    p = sub.add_parser("char", help="character series")
    p.add_argument("--which", required=True,
                   choices=["s3", "z3", "sgn", "st", "vac", "fock", "theta",
                            "sigma", "w-free"])
    p.add_argument("--order", type=_int_range(0, MAX_SERIES_ORDER),
                   default=DEFAULT_TRUNCATION)
    p.add_argument("--weights", default="",
                   help="comma-separated rationals; a list that starts "
                        "with a minus sign takes the form --weights=-1,0,1")
    p.add_argument("--check", dest="check_burnside", action="store_true",
                   help="cross-validate against direct Fock-space traces")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_char, parser=p)

    p = sub.add_parser("qdim", help="quantum-dimension ratio estimates")
    p.add_argument("--module", required=True,
                   help="e.g. fock:1/2,1/4,1/8  theta:0,0  sigma:0  sgn  st")
    p.add_argument("--t-list", default="0.1,0.05,0.02")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_qdim, parser=p)

    p = sub.add_parser("modular", help="eta-transformation identities")
    p.add_argument("--tau", default="i",
                   help="imaginary point, e.g. i, i/2, 2i; a value that "
                        "starts with a minus sign takes the form --tau=-i")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    p.add_argument("--quadrature", action="store_true",
                   help="also evaluate the Gaussian integrals by quadrature")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_modular, parser=p)

    p = sub.add_parser("product", help="compute a mode product u_n v")
    p.add_argument("--u", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_product, parser=p)

    p = sub.add_parser("manifest", help="relation catalog summary")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_manifest, parser=p)

    return parser


@lru_cache(maxsize=None)
def _main_parser() -> argparse.ArgumentParser:
    """The parser ``main`` builds once per process; parsing leaves it as it
    was, so every call parses as a fresh ``build_parser()`` would."""
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    # each command reports usage errors through its own subparser
    return args.func(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
