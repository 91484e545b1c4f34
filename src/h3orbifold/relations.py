"""Catalog of the explicit decoupling relations, with exact verification.

Every entry evaluates left minus right in exact arithmetic and must return
the zero state.  Entries are tagged with a status:

* ``as-printed``  -- the source display verifies verbatim;
* ``corrected``   -- the display contains a transcription defect; the stored
  coefficients are the unique (or minimal-deviation) exact completion, solved
  for by exact linear algebra, and the note records what changed;
* ``reformulated`` -- the display is not directly evaluable (inconsistent or
  underdetermined terms); the stored relation is the canonical equivalent
  statement, and the note explains the defect.

The catalog is exported as a machine-readable manifest for the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .fock import BETA, FockState
from .structure import build_D, cubic_family_coefficients
from .symmetry import gen
from .vertex import nth_product as P
from .vertex import translate_power as Tk   # v_{-1-k} |0> = T^k v / k!


def w2(a, b):
    return gen("omega2_0", a, b)


def w3(a, b, c):
    return gen("omega3_0", a, b, c)


def w23(a, b):
    return gen("omega23_0", a, b)


def w222(a, b, c):
    return gen("omega222_0", a, b, c)


def _combine(terms) -> FockState:
    acc = None
    for coeff, state in terms:
        piece = state.scale(Fraction(coeff))
        acc = piece if acc is None else acc + piece
    return acc


# -- weight-6-and-below derivative identities ---------------------------------


def _setup_deriv_1():
    return w3(0, 0, 1) - Tk(w3(0, 0, 0), 1).scale(Fraction(1, 3))


def _setup_deriv_2():
    # display carries 2/3 on the translation term; the identity needs 1/3
    return w3(0, 1, 1) - _combine([(-1, w3(0, 0, 2)),
                                   (Fraction(1, 3), Tk(w3(0, 0, 0), 2))])


def _setup_deriv_3():
    return w3(0, 0, 3) - _combine([(Fraction(-2, 3), w3(0, 1, 2)),
                                   (Fraction(1, 3), Tk(w3(0, 0, 2), 1))])


def _big_deriv_1():
    # display shows the right-hand side scaled by 1/24
    return w3(0, 1, 3) - _combine([
        (-2, w3(0, 0, 4)),
        (Fraction(-1, 3), Tk(w3(0, 1, 2), 1)),
        (Fraction(1, 3), Tk(w3(0, 0, 2), 2)),
    ])


def _big_deriv_2():
    return w3(0, 2, 2) - _combine([
        (3, w3(0, 0, 4)),
        (Fraction(4, 3), Tk(w3(0, 1, 2), 1)),
        (Fraction(-1, 3), Tk(w3(0, 0, 2), 2)),
        (Fraction(-1, 3), Tk(w3(0, 0, 0), 4)),
    ])


def _big_deriv_3():
    # display scaled by 1/12 and with one denominator slip (1/35 for 1/36)
    return w3(0, 2, 3) - _combine([
        (Fraction(-2, 5), w3(0, 1, 4)),
        (Fraction(1, 5), Tk(w3(0, 0, 4), 1)),
        (Fraction(1, 3), Tk(w3(0, 1, 2), 2)),
        (Fraction(-1, 3), Tk(w3(0, 0, 0), 5)),
    ])


def _big_deriv_4():
    # display scaled by 1/4
    return w3(0, 3, 3) - _combine([
        (5, w3(0, 0, 6)),
        (-2, w3(0, 2, 4)),
        (Fraction(4, 5), Tk(w3(0, 1, 4), 1)),
        (Fraction(1, 5), Tk(w3(0, 0, 4), 2)),
        (Fraction(2, 3), Tk(w3(0, 1, 2), 3)),
        (Fraction(-1, 3), Tk(w3(0, 0, 2), 4)),
        (-1, Tk(w3(0, 0, 0), 6)),
    ])


def _big_deriv_5():
    return w3(0, 3, 4) - _combine([
        (Fraction(5, 7), w3(0, 1, 6)),
        (Fraction(15, 7), Tk(w3(0, 0, 6), 1)),
        (Fraction(-1, 3), Tk(w3(0, 2, 4), 1)),
        (Fraction(2, 3), Tk(w3(0, 1, 4), 2)),
        (Fraction(5, 9), Tk(w3(0, 1, 2), 4)),
        (Fraction(-5, 9), Tk(w3(0, 0, 2), 5)),
        (Fraction(-10, 9), Tk(w3(0, 0, 0), 7)),
    ])


def _big_deriv_6():
    return w3(0, 4, 4) - _combine([
        (-21, w3(0, 0, 8)),
        (4, w3(0, 2, 6)),
        (Fraction(-8, 7), Tk(w3(0, 1, 6), 1)),
        (Fraction(29, 7), Tk(w3(0, 0, 6), 2)),
        (Fraction(-2, 3), Tk(w3(0, 2, 4), 2)),
        (Fraction(8, 5), Tk(w3(0, 1, 4), 3)),
        (Fraction(-1, 5), Tk(w3(0, 0, 4), 4)),
        (Fraction(16, 9), Tk(w3(0, 1, 2), 5)),
        (Fraction(-7, 3), Tk(w3(0, 0, 2), 6)),
        (Fraction(-47, 9), Tk(w3(0, 0, 0), 8)),
    ])


# -- weight-8 quadratic decoupling --------------------------------------------


def _quaddec_06():
    # 14 of the 15 displayed terms verify verbatim; the displayed
    # (1/4452) w2(0,0).w2(0,0).w2(0,1) must read (1/8904) w2(0,0).w2(0,0).w2(1,1)
    return w2(0, 6) - _combine([
        (Fraction(143, 742), Tk(w2(0, 4), 2)),
        (Fraction(-81, 371), Tk(w2(0, 2), 4)),
        (Fraction(743, 1113), Tk(w2(0, 0), 6)),
        (Fraction(1, 1484), P(w2(0, 0), -1, w2(0, 4))),
        (Fraction(-13, 2968), P(w2(0, 0), -1, w2(1, 3))),
        (Fraction(-1, 4452), P(w2(0, 0), -1, w2(2, 2))),
        (Fraction(2, 1113), P(w2(0, 1), -1, w2(0, 3))),
        (Fraction(-1, 1113), P(w2(0, 1), -1, w2(1, 2))),
        (Fraction(1, 2226), P(w2(0, 2), -1, w2(0, 2))),
        (Fraction(-3, 1484), P(w2(0, 2), -1, w2(1, 1))),
        (Fraction(-1, 2968), P(w2(1, 1), -1, w2(1, 1))),
        (Fraction(1, 8904), P(w2(0, 0), -1, P(w2(0, 0), -1, w2(1, 1)))),
        (Fraction(-1, 8904), P(w2(0, 0), -1, P(w2(0, 1), -1, w2(0, 1)))),
        (Fraction(1, 4452), P(w3(0, 0, 0), -1, w3(0, 1, 1))),
        (Fraction(-1, 4452), P(w3(0, 0, 1), -1, w3(0, 0, 1))),
    ])


# -- cubic decouplings ---------------------------------------------------------


def _step1_004():
    # display shows the right-hand side scaled by 24
    return w3(0, 0, 4) - _combine([
        (Fraction(-2, 45), Tk(w3(0, 1, 2), 1)),
        (Fraction(1, 90), Tk(w3(0, 0, 2), 2)),
        (Fraction(1, 45), Tk(w3(0, 0, 0), 4)),
        (Fraction(-1, 60), P(w2(0, 0), -1, w3(0, 1, 1))),
        (Fraction(1, 30), P(w2(0, 1), -1, w3(0, 0, 1))),
        (Fraction(-1, 60), P(w2(1, 1), -1, w3(0, 0, 0))),
    ])


def _step2_024():
    # canonical 12-term decoupling solved over the displayed shape family;
    # the display itself mixes terms of two different conformal weights
    return w3(0, 2, 4) - _combine([
        (Fraction(25, 144), Tk(w3(0, 0, 5), 1)),
        (Fraction(53, 216), Tk(w3(0, 1, 4), 1)),
        (Fraction(1, 108), Tk(w3(0, 2, 3), 1)),
        (Fraction(-17, 864), Tk(w3(0, 1, 3), 2)),
        (Fraction(1, 64), P(w2(0, 0), -1, w3(0, 1, 3))),
        (Fraction(-1, 64), P(w2(0, 1), -1, w3(0, 0, 3))),
        (Fraction(1, 54), P(w2(0, 1), -1, w3(0, 1, 2))),
        (Fraction(-1, 54), P(w2(0, 2), -1, w3(0, 1, 1))),
        (Fraction(-1, 64), P(w2(0, 3), -1, w3(0, 0, 1))),
        (Fraction(-1, 54), P(w2(1, 1), -1, w3(0, 0, 2))),
        (Fraction(1, 54), P(w2(1, 2), -1, w3(0, 0, 1))),
        (Fraction(1, 64), P(w2(1, 3), -1, w3(0, 0, 0))),
    ])


def _step4(a, b):
    """Shape certificate for the induction tail.

    The quintic expression with index pattern (b, a-1, 0, 0, 0) is pure cubic
    and its first-index-zero support is exactly {(0,0,a+b+1), (0,a-1,b+2),
    (0,a+1,b)} with a nonzero leading coefficient, so it decouples
    omega3_0(0,a+1,b) in the displayed shape.  The residual collects any
    first-index-zero terms outside that support (and vanishes for valid
    instances).  The displayed closed-form leading coefficients depend on an
    unstated elimination path and are recorded in the note only.
    """
    if not 5 <= a < b:
        raise ValueError("requires 5 <= a < b")
    expr = build_D("D5", (b, a - 1, 0, 0, 0))
    mu = cubic_family_coefficients(expr)
    s = a + b + 1
    allowed = {tuple(sorted((0, 0, s))), tuple(sorted((0, a - 1, b + 2))),
               tuple(sorted((0, a + 1, b)))}
    main = mu.get(tuple(sorted((0, a + 1, b))), Fraction(0))
    residual = FockState(3, BETA)
    if not main:
        # flag the failure: decoupling term missing entirely
        return w3(0, a + 1, b)
    for key, c in mu.items():
        if key[0] == 0 and key not in allowed:
            residual = residual + w3(*key).scale(c)
    return residual


# -- cyclic-orbifold relations -------------------------------------------------


def D2(a: int) -> FockState:
    return P(w23(0, a), -1, w23(1, 1)) - P(w23(1, a), -1, w23(0, 1))


def D3(a: int, b: int) -> FockState:
    return P(w23(0, a), -1, w222(0, 0, b)) - P(w23(b, a), -1, w222(0, 0, 0))


def _z3_quad_D2(a):
    """The full chain for the quadratic tool: the binomial expansion, the
    index-flip rewriting, and the reduced form; all three must hold."""
    r = D2(a) - _combine([
        (comb(a + 2, 2) * comb(a + 4, 2), w23(0, a + 4)),
        (2 * comb(a + 3, 3), w23(1, a + 3)),
        (-((-1) ** a) * (a + 1), w23(a + 3, 1)),
    ])
    if not r.is_zero():
        return r
    rhs = FockState(3, BETA)
    for j in range(0, a + 4):
        rhs = rhs + Tk(w23(0, a - j + 4), j).scale(
            Fraction((-1) ** (a + j + 1) * (a - j + 4)))
    r = w23(a + 3, 1) - rhs
    if not r.is_zero():
        return r
    rhs = (w23(0, a + 4).scale(Fraction(-(a + 6) * (a + 4) * (a + 1) * (a - 1), 12))
           + Tk(w23(0, a + 3), 1).scale(2 * comb(a + 3, 3)))
    for j in range(1, a + 4):
        rhs = rhs + Tk(w23(0, a - j + 4), j).scale(
            Fraction((-1) ** j * (a + 1) * (a - j + 4)))
    return D2(a) - rhs


def _z3_quad_05():
    return w23(0, 5) - _combine([
        (Fraction(1, 7), P(w23(0, 0), -1, w23(1, 2))),
        (Fraction(-1, 7), P(w23(1, 0), -1, w23(0, 2))),
        (Fraction(3, 7), Tk(w23(0, 4), 1)),
        (Fraction(-3, 7), Tk(w23(0, 3), 2)),
        (Fraction(1, 7), Tk(w23(0, 2), 3)),
    ])


def _z3_cubic_D3(a, b):
    """The cubic tool is already a plain combination of cubic generators:
    its five-mode part cancels.  Residual: everything that is not cubic."""
    d = D3(a, b)
    residual = FockState(3, BETA)
    for mon, c in d.terms.items():
        if len(mon) != 3:
            residual._add_term(mon, c)
    return residual


def _z3_cubic_0a(a):
    if a < 3:
        raise ValueError("requires a >= 3")
    rhs = (Tk(w222(0, 0, a - 1), 1)
           + D3(a - 3, 1).scale(Fraction((-1) ** a, a - 2))).scale(
        Fraction(1, 3 * a + 1))
    return w222(0, 0, a) - rhs


def _z3_cubic_ab(a, b):
    if not 2 <= a <= b:
        raise ValueError("requires 2 <= a <= b")
    rhs = (w222(0, 0, a + b).scale(
        Fraction((2 * a + 3 * b) * comb(a + b, a), a + b))
        + D3(a - 2, b).scale(Fraction((-1) ** a, a - 1))).scale(Fraction(1, 2))
    return w222(0, a, b) - rhs


def _z3_cubic_01a(a):
    rhs = (Tk(w222(0, 0, a), 1)
           - w222(0, 0, a + 1).scale(a + 1)).scale(Fraction(1, 2))
    return w222(0, 1, a) - rhs


# -- catalog -------------------------------------------------------------------


class RelationEntry(NamedTuple):
    name: str
    label: str
    builder: object
    default_instances: tuple
    status: str
    suite: str
    note: str = ""


CATALOG = {r.name: r for r in [
    RelationEntry(
        "setup_deriv_1", "cubic (0,0,1) from the translation of (0,0,0)",
        _setup_deriv_1, ((),), "as-printed", "s3-relations"),
    RelationEntry(
        "setup_deriv_2", "cubic (0,1,1) from (0,0,2) and a translation image",
        _setup_deriv_2, ((),), "corrected", "s3-relations",
        "translation coefficient reads 2/3 in the display; the identity "
        "requires 1/3 (unique completion in the displayed shape)"),
    RelationEntry(
        "setup_deriv_3", "cubic (0,0,3) from (0,1,2) and a translation image",
        _setup_deriv_3, ((),), "as-printed", "s3-relations"),
    RelationEntry(
        "big_deriv_1", "cubic (0,1,3) reduction",
        _big_deriv_1, ((),), "corrected", "s3-relations",
        "displayed right-hand side is the true one multiplied by 1/24"),
    RelationEntry(
        "big_deriv_2", "cubic (0,2,2) reduction",
        _big_deriv_2, ((),), "as-printed", "s3-relations"),
    RelationEntry(
        "big_deriv_3", "cubic (0,2,3) reduction",
        _big_deriv_3, ((),), "corrected", "s3-relations",
        "displayed right-hand side is scaled by 1/12 and one denominator "
        "reads 35 for 36; stored coefficients are the unique completion"),
    RelationEntry(
        "big_deriv_4", "cubic (0,3,3) reduction",
        _big_deriv_4, ((),), "corrected", "s3-relations",
        "displayed right-hand side is the true one multiplied by 1/4"),
    RelationEntry(
        "big_deriv_5", "cubic (0,3,4) reduction",
        _big_deriv_5, ((),), "as-printed", "s3-relations"),
    RelationEntry(
        "big_deriv_6", "cubic (0,4,4) reduction",
        _big_deriv_6, ((),), "as-printed", "s3-relations"),
    RelationEntry(
        "quaddec_06", "weight-8 quadratic generator decoupling (15 terms)",
        _quaddec_06, ((),), "corrected", "s3-relations",
        "14 of 15 displayed terms verify verbatim; the displayed term "
        "(1/4452) w2(0,0).w2(0,0).w2(0,1) must read "
        "(1/8904) w2(0,0).w2(0,0).w2(1,1); no assignment exists on the "
        "displayed support"),
    RelationEntry(
        "step1_004", "weight-7 cubic generator decoupling",
        _step1_004, ((),), "corrected", "s3-relations",
        "displayed right-hand side is the true one multiplied by 24"),
    RelationEntry(
        "step2_024", "weight-9 cubic generator decoupling",
        _step2_024, ((),), "reformulated", "s3-relations",
        "the display mixes terms of conformal weights 9 and 10 and admits no "
        "assignment on its weight-consistent subset; stored relation is the "
        "canonical 12-term decoupling solved over the displayed shape family"),
    RelationEntry(
        "step4", "induction-tail decoupling shape certificate",
        _step4, ((5, 6), (5, 7), (6, 7)), "reformulated", "s3-relations",
        "the displayed source pattern has inconsistent weight; the pattern "
        "(b, a-1, 0, 0, 0) produces a decoupling supported on exactly the "
        "three displayed generator labels, which is what is verified; the "
        "displayed compound binomial coefficients depend on an unstated "
        "elimination path in an overcomplete family and are not reproducible"),
    RelationEntry(
        "z3_quad_D2", "cyclic quadratic tool: expansion, flip and reduction",
        _z3_quad_D2, ((0,), (1,), (2,), (3,), (4,)), "as-printed",
        "z3-relations"),
    RelationEntry(
        "z3_quad_05", "cyclic weight-7 quadratic decoupling",
        _z3_quad_05, ((),), "as-printed", "z3-relations"),
    RelationEntry(
        "z3_cubic_D3", "cyclic cubic tool is quintic-free",
        _z3_cubic_D3, ((0, 1), (1, 1), (2, 1), (0, 2), (1, 2)),
        "as-printed", "z3-relations"),
    RelationEntry(
        "z3_cubic_0a", "cyclic cubic decoupling of (0,0,a)",
        _z3_cubic_0a, ((3,), (4,), (5,), (6,)), "as-printed",
        "z3-relations"),
    RelationEntry(
        "z3_cubic_ab", "cyclic cubic decoupling of (0,a,b)",
        _z3_cubic_ab, ((2, 2), (2, 3), (3, 3), (2, 4)), "as-printed",
        "z3-relations"),
    RelationEntry(
        "z3_cubic_01a", "cyclic cubic decoupling of (0,1,a)",
        _z3_cubic_01a, ((1,), (2,), (3,), (4,), (5,)), "as-printed",
        "z3-relations"),
]}


def verify_relation(name: str, params=()) -> FockState:
    """Residual state of a catalog relation; must be zero."""
    spec = CATALOG.get(name)
    if spec is None:
        raise ValueError(f"unknown relation {name!r}")
    params = tuple(params)
    arity = len(spec.default_instances[0])
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameters")
    return spec.builder(*params)


def default_instances():
    """(name, params) pairs covering every catalog entry."""
    out = []
    for spec in CATALOG.values():
        for params in spec.default_instances:
            out.append((spec.name, params))
    return out


def manifest() -> list:
    """Machine-readable catalog summary: id -> tag -> status."""
    return [
        {
            "id": spec.name,
            "tag": spec.label,
            "suite": spec.suite,
            "status": spec.status,
            "note": spec.note,
            "instances": [list(p) for p in spec.default_instances],
        }
        for spec in CATALOG.values()
    ]
