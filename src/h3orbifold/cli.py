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
import os
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .classical import cpoly_relation, relation_arity
from .fock import enumerate_basis, FockState, parse_state
from .qseries import DEFAULT_ORDER, MAX_SERIES_ORDER, burnside_check, character
from .modular import check_gauss_identity, qdim_estimate, DEFAULT_TOL
from .primaries import verify_primaries
from .relations import CATALOG, default_instances, manifest, verify_relation
from .scalars import parse_rational
from .structure import (MAX_SPAN_WEIGHT, S3_GENERATOR_IDS, Z3_GENERATOR_IDS,
                        span_dims)
from .symmetry import GeneratorId
from .vertex import check_borcherds, check_skew_symmetry, nth_product

SCHEMA = "h3orbifold-report/1"
DEFAULT_SEED = "H3S3"
#: the largest result weight ``product`` computes; a larger one is refused
#: before any work
MAX_PRODUCT_WEIGHT = 12


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


def _rationals(text):
    """Comma-separated rationals, each read by ``scalars.parse_rational``."""
    return tuple(map(parse_rational, text.split(","))) if text else ()


def _float(value):
    """float(value); ValueError where value is beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError("number too large for a float") from None


def _print(text):
    """Print the text.  A reader that closes stdout early ends the output but
    not the verb, whose exit code stands: stdout then points at the null
    device, so the flush at exit has nothing left to fail on."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# -- verify --------------------------------------------------------------------


def _suite_relations(suite):
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
    results = []
    for family in ("D5C", "D6C1", "D6C2"):
        arity = relation_arity(family)
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
    def rand_state(basis):
        out = FockState(3, basis)
        for _ in range(rng.randint(1, 3)):
            w = rng.randint(0, 4)
            mons = enumerate_basis(3, w)
            out._add_term(rng.choice(mons),
                          Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return out
    def trial(check, states, indices):
        # a trial draws its basis, then its states, then its mode indices
        basis = rng.choice(["a", "b"])
        args = [rand_state(basis) for _ in range(states)]
        return check(*args, *(rng.randint(-2, 2) for _ in range(indices)))
    # the 100 trials of an axiom stop at the first failure
    return [{"id": name, "tag": "vertex axiom", "params": [],
             "status": "as-printed",
             "pass": all(trial(*spec).is_zero() for _ in range(100))}
            for name, *spec in (("skew-symmetry", check_skew_symmetry, 2, 1),
                                ("borcherds", check_borcherds, 3, 3))]


def _suite_primaries(rng):
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


def cmd_verify(args):
    rng = random.Random(args.seed)
    results = []
    for name, suite in SUITES.items():
        if args.suite in (name, "all"):
            results += suite(rng)
    results.sort(key=lambda r: (r["id"], r["params"]))
    all_pass = all(r["pass"] for r in results)
    payload = {"suite": args.suite, "seed": str(args.seed),
               "results": results, "pass": all_pass}
    lines = [f"{'PASS' if r['pass'] else 'FAIL'}  {r['id']}"
             f"{tuple(r['params']) if r['params'] else ''}  [{r['status']}]"
             for r in results]
    lines.append(f"{'all checks passed' if all_pass else 'FAILURES PRESENT'} "
                 f"({len(results)} checks)")
    return payload, lines, 0 if all_pass else 1


# -- span ----------------------------------------------------------------------


def _parse_generator(text):
    """The generator whose ``str`` is text: each index as ``str(int)``
    prints it, so no sign, space, underscore or leading zero."""
    name, _, idx = text.partition("(")
    body = idx[:-1]
    positions = body.split(",") if body else []
    try:
        indices = tuple(map(int, positions))
        if idx.endswith(")") and list(map(str, indices)) == positions:
            return GeneratorId(name, indices)
    except ValueError:  # an empty or non-integer index
        pass
    raise ValueError(f"malformed generator {text!r}")


def cmd_span(args):
    gens = list(S3_GENERATOR_IDS if args.group == "s3" else Z3_GENERATOR_IDS)
    dropped = None
    if args.drop is not None:
        dropped = _parse_generator(args.drop)
        if dropped not in gens:
            raise ValueError(f"{args.drop} is not in the {args.group} generating set")
        gens.remove(dropped)
    report = span_dims(gens, args.max_weight, args.group.upper())
    payload = {
        "group": args.group, "max_weight": args.max_weight,
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
    # with a generator dropped, demonstrating a deficit is the expected outcome
    return payload, lines, 0 if report.all_matched == (dropped is None) else 1


# -- dims ----------------------------------------------------------------------


def cmd_dims(args):
    count = args.max_weight + 1
    # the Fock space is the vacuum module
    columns = {column: [int(c) for c in character(which, args.max_weight)
                        .integer_slice(count)]
               for column, which in (("fock", "vac"), ("s3", "s3"),
                                     ("z3", "z3"))}
    rows = [{"weight": w, **{column: dims[w] for column, dims in columns.items()}}
            for w in range(count)]
    payload = {"max_weight": args.max_weight, "rows": rows}
    lines = ["weight  fock   s3-inv  z3-inv"]
    for r in rows:
        lines.append(f"{r['weight']:6d}  {r['fock']:5d}  {r['s3']:6d}  {r['z3']:6d}")
    return payload, lines, 0


# -- char ----------------------------------------------------------------------


def cmd_char(args):
    order = args.order
    try:
        weights = _rationals(args.weights)
    except ValueError as exc:
        raise ValueError(f"bad --weights: {exc}") from None
    series = character(args.which, order, weights)
    checks = {}
    if args.check_burnside:
        checks["burnside"] = burnside_check(args.which, series, order, weights)
    integers = [str(c) for c in series.integer_slice(order + 1)]
    payload = {"which": args.which,
               "series": {**series.to_json(), "integer_slice": integers},
               **checks}
    lines = [f"character {args.which}, offset q^({series.offset}), "
             f"lattice 1/{series.D}, order {series.order}"]
    lines.append("  " + " ".join(str(c) for c in series.integer_slice(min(order + 1, 13))))
    if checks:
        lines.append(f"  burnside cross-check: {'pass' if checks['burnside'] else 'FAIL'}")
    return payload, lines, 0 if all(checks.values()) else 1


# -- qdim / modular -------------------------------------------------------------


def cmd_qdim(args):
    kind, _, rest = args.module.partition(":")
    weights = _rationals(rest)
    t_list = [_float(t) for t in _rationals(args.t_list)]
    report = qdim_estimate(kind, t_list, weights=weights)
    lines = [f"module {report.module}: {report.classification}"]
    for t, r in zip(report.t_values, report.ratios):
        lines.append(f"  t={t:<8g} ratio={r:.9g}")
    if report.classification == "finite":
        lines.append(f"  extrapolated limit: {report.limit_estimate:.6f}")
        if report.expected is not None:
            lines.append(f"  expected {report.expected}: "
                         f"{'pass' if report.passed else 'FAIL'}")
    else:
        lines.append(f"  growth exponent: {report.growth_exponent:.4f}")
    return report.to_json(), lines, 0 if report.passed else 1


#: a tau on the imaginary axis: a numerator that ends in its one "i", then
#: an optional "/" and denominator
_IMAGINARY_TAU = re.compile(r"([^/i]*)i(?:/([^/i]+))?")


def _parse_tau(text):
    """Accepts "i", "2i", "i/2", "3i/4", or "re,im"; bare numbers are taken
    as points on the imaginary axis.  ValueError for malformed text (an
    "i" that does not end the numerator, a second "/"), a part beyond the
    float range or a decimal exponent beyond
    ``scalars.MAX_DECIMAL_EXPONENT``."""
    if "," in text:
        re_, im = text.split(",")
        return complex(_float(parse_rational(re_)),
                       _float(parse_rational(im)))
    text = text.strip().replace(" ", "")
    if "i" in text:
        match = _IMAGINARY_TAU.fullmatch(text)
        if not match:
            raise ValueError(f"malformed tau {text!r}")
        num, den = match.groups()
        num = {"": "1", "-": "-1"}.get(num, num)
        mag = parse_rational(num) / (parse_rational(den) if den else 1)
        return complex(0, _float(mag))
    return complex(0, _float(parse_rational(text)))


def cmd_modular(args):
    try:
        tau = _parse_tau(args.tau)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse tau {args.tau!r}") from None
    reports = [check_gauss_identity(line, tau, tol=args.tol,
                                    quadrature=args.quadrature)
               for line in (1, 2, 3)]
    all_pass = all(r.passed for r in reports)
    payload = {"reports": [r.to_json() for r in reports], "pass": all_pass}
    lines = [(f"{r.identity} at tau={args.tau}: rel_err={r.rel_err:.3e} "
              f"{'pass' if r.passed else 'FAIL'}") for r in reports]
    return payload, lines, 0 if all_pass else 1


# -- product --------------------------------------------------------------------


def cmd_product(args):
    u, v = parse_state(args.u), parse_state(args.v)
    u._check_compatible(v)
    top = u.max_weight() + v.max_weight() - args.n - 1
    if top > MAX_PRODUCT_WEIGHT and not (u.is_zero() or v.is_zero()):
        raise ValueError(f"product weight {top} exceeds cap {MAX_PRODUCT_WEIGHT}")
    u_text, v_text, result = map(str, (u, v, nth_product(u, args.n, v)))
    return {"u": u_text, "n": args.n, "v": v_text, "result": result}, [result], 0


# -- manifest -------------------------------------------------------------------


def cmd_manifest(args):
    entries = manifest()
    lines = [f"{e['id']:16s} [{e['status']:12s}] {e['tag']}" for e in entries]
    return {"relations": entries}, lines, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h3orb",
        description="exact computations in the rank-3 permutation orbifolds")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    verify.set_defaults(func=cmd_verify)

    p = sub.add_parser("span", help="graded dimensions of a strong span")
    p.add_argument("--group", default="s3", choices=["s3", "z3"])
    p.add_argument("--max-weight", type=_int_range(0, MAX_SPAN_WEIGHT), default=6)
    p.add_argument("--drop", default=None,
                   help="generator to remove, e.g. omega3(0,1,2)")
    p.set_defaults(func=cmd_span)

    p = sub.add_parser("dims", help="graded dimension table")
    p.add_argument("--max-weight", type=_int_range(0, MAX_SERIES_ORDER),
                   default=DEFAULT_ORDER)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("char", help="character series")
    p.add_argument("--which", required=True,
                   choices=["s3", "z3", "sgn", "st", "vac", "fock", "theta",
                            "sigma", "w-free"])
    p.add_argument("--order", type=_int_range(0, MAX_SERIES_ORDER),
                   default=DEFAULT_ORDER)
    p.add_argument("--weights", default="",
                   help="comma-separated rationals; a list that starts "
                        "with a minus sign takes the form --weights=-1,0,1")
    p.add_argument("--check", dest="check_burnside", action="store_true",
                   help="cross-validate against direct Fock-space traces")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("qdim", help="quantum-dimension ratio estimates")
    p.add_argument("--module", required=True,
                   help="e.g. fock:1/2,1/4,1/8  theta:0,0  sigma:0  sgn  st")
    p.add_argument("--t-list", default="0.1,0.05,0.02")
    p.set_defaults(func=cmd_qdim)

    p = sub.add_parser("modular", help="eta-transformation identities")
    p.add_argument("--tau", default="i",
                   help="imaginary point, e.g. i, i/2, 2i; a value that "
                        "starts with a minus sign takes the form --tau=-i")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    p.add_argument("--quadrature", action="store_true",
                   help="also evaluate the Gaussian integrals by quadrature")
    p.set_defaults(func=cmd_modular)

    p = sub.add_parser("product", help="compute a mode product u_n v")
    p.add_argument("--u", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("manifest", help="relation catalog summary")
    p.set_defaults(func=cmd_manifest)

    # each verb reports usage errors through its own parser
    for p in sub.choices.values():
        p.add_argument("--format", default="text", choices=["text", "json"])
        p.set_defaults(parser=p)
    # verify's usage lists --seed after --format
    verify.add_argument("--seed", default=DEFAULT_SEED)
    return parser


@lru_cache(maxsize=None)
def _main_parser() -> argparse.ArgumentParser:
    """The parser ``main`` builds once per process; parsing leaves it as it
    was, so every call parses as a fresh ``build_parser()`` would."""
    return build_parser()


def main(argv=None) -> int:
    """Run the verb, which returns its JSON payload, its text lines and its
    exit code, and print one of the two.  A ValueError from the verb or from
    rendering its report (an integer past Python's int-to-text limit) is the
    engine refusing an argument: the verb's usage and the message, exit
    code 2."""
    args = _main_parser().parse_args(argv)
    try:
        payload, lines, code = args.func(args)
        if args.format == "json":
            text = json.dumps({"schema": SCHEMA, "command": args.verb,
                               **payload}, indent=2, default=str)
        else:
            text = "\n".join(lines)
    except ValueError as exc:
        args.parser.error(str(exc))
    _print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
