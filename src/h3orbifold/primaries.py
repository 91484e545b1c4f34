"""The primary strong generators of both orbifolds and the rank-2 warm-up
vector, with verification of weight, invariance and primality.

Coefficients marked corrected were solved for exactly as the unique
completion of the displayed leading term under the primality constraints
L(1) v = L(2) v = 0; notes record the deviation from the source display.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .fock import FockState
from .symmetry import Permutation, act, gen, is_invariant
from .vertex import is_primary, translate
from .vertex import nth_product as P
from .vertex import translate_power as Tk

F = Fraction


def s3_primary_vectors() -> dict:
    """The seven strong generators of the full-orbifold in primary form."""
    h = gen("omega1", 0)
    om = gen("omega2", 0, 0).scale(F(1, 2))
    vac = FockState.vacuum(3)
    J1 = (gen("omega2", 0, 2).scale(2)
          - P(om, -1, om).scale(F(24, 37))
          - Tk(om, 2).scale(F(30, 37)))
    J2 = (gen("omega2", 0, 4).scale(24)
          - Tk(gen("omega2", 0, 2), 2).scale(F(460, 81))
          - P(om, -1, gen("omega2", 0, 2)).scale(F(80, 27))
          + P(om, -1, P(om, -1, om)).scale(F(256, 801))
          - P(om, -2, P(om, -2, vac)).scale(F(364, 2403))
          + P(om, -3, om).scale(F(3472, 2403))
          + Tk(om, 4).scale(F(40744, 2403)))
    C1 = gen("omega3", 0, 0, 0) - P(h, -1, P(h, -1, h)).scale(F(1, 3))
    C2 = (gen("omega3", 0, 0, 2).scale(2)
          - Tk(gen("omega3", 0, 0, 0), 2).scale(F(2, 15))
          - P(h, -3, P(h, -1, h)).scale(F(8, 45))
          + P(h, -2, P(h, -2, h)).scale(F(2, 15))
          - P(om, -1, gen("omega3", 0, 0, 0)).scale(F(16, 45))
          + P(h, -1, P(h, -1, P(h, -1, om))).scale(F(16, 135)))
    # corrected: the (0,0,2) translation coefficient reads 1/10 in the
    # display but must be 1/5, and the garbled sextic term is h_{-2}^3 |0>;
    # the completion below is the unique primary with this leading term
    C3 = (gen("omega3", 0, 1, 2).scale(2)
          + Tk(gen("omega3", 0, 0, 2), 1).scale(F(1, 5))
          - Tk(gen("omega3", 0, 0, 0), 3).scale(F(6, 25))
          - P(om, -1, Tk(gen("omega3", 0, 0, 0), 1)).scale(F(2, 25))
          + P(om, -2, gen("omega3", 0, 0, 0)).scale(F(3, 25))
          - P(h, -1, P(h, -1, P(h, -1, Tk(om, 1)))).scale(F(1, 25))
          + P(h, -2, P(h, -1, P(h, -1, om))).scale(F(2, 25))
          + P(h, -2, P(h, -2, Tk(h, 1))).scale(F(2, 25))
          - P(h, -3, P(h, -2, h)).scale(F(4, 25))
          + P(h, -4, P(h, -1, h)).scale(F(2, 25)))
    return {
        "h": (h, 1), "omega": (om, 2), "C1": (C1, 3), "J1": (J1, 4),
        "C2": (C2, 5), "J2": (J2, 6), "C3": (C3, 6),
    }


def z3_primary_vectors() -> dict:
    """The nine strong generators of the cyclic orbifold in primary form."""
    h = gen("omega1_0", 0)
    om = gen("omega23_0", 0, 0) + P(h, -1, h).scale(F(1, 2))
    J1 = (gen("omega23_0", 0, 1) - Tk(om, 1).scale(F(1, 2))
          + P(h, -2, h).scale(F(1, 2)))
    J2 = (gen("omega23_0", 0, 2).scale(2) - Tk(gen("omega23_0", 0, 1), 1)
          + P(om, -1, om).scale(F(2, 3))
          - P(h, -1, P(h, -1, om)).scale(F(22, 3))
          + P(h, -3, h).scale(F(77, 9))
          - P(h, -2, Tk(h, 1)).scale(F(83, 12)))
    # canonical replacement: the displayed J3 repeats one quintic term and is
    # not primary under either reading; this is the solved completion of the
    # same leading term over translation images and conformal-vector products
    J3 = (gen("omega23_0", 0, 3).scale(6)
          - Tk(gen("omega23_0", 0, 2), 1).scale(3)
          + Tk(gen("omega23_0", 0, 1), 2).scale(F(5, 3))
          - Tk(gen("omega23_0", 0, 0), 3)
          + P(om, -1, Tk(gen("omega23_0", 0, 0), 1)).scale(F(4, 9))
          - P(om, -1, gen("omega23_0", 0, 1)).scale(F(8, 9)))
    out = {"h": (h, 1), "omega": (om, 2), "J1": (J1, 3), "J2": (J2, 4),
           "J3": (J3, 5)}
    for tag, fam in (("2", "omega222_0"), ("3", "omega333_0")):
        c1 = gen(fam, 0, 0, 0)
        # corrected: the conformal-product coefficient reads 8/15 in the
        # display but must be 8/45
        c2 = (gen(fam, 0, 0, 2)
              - Tk(gen(fam, 0, 0, 0), 2).scale(F(1, 15))
              - P(om, -1, gen(fam, 0, 0, 0)).scale(F(8, 45)))
        out[f"C1({tag})"] = (c1, 3)
        out[f"C2({tag})"] = (c2, 5)
    return out


def pair_orbifold_primary() -> FockState:
    """The rank-2 weight-4 primary generating the swap-invariant subalgebra.

    Corrected: the cross-level terms read +-2 inside the displayed prefactor
    1/2 but the unique primary completion of the displayed quartic part needs
    +-4 there.
    """
    def M(coef, *modes):
        return FockState.monomial(2, modes, F(coef))
    return (M(F(1, 2), (1, 1), (1, 1), (1, 1), (1, 1))
            + M(F(1, 2), (1, 2), (1, 2), (1, 2), (1, 2))
            - M(2, (1, 1), (1, 1), (1, 1), (1, 2))
            - M(2, (1, 1), (1, 2), (1, 2), (1, 2))
            + M(3, (1, 1), (1, 1), (1, 2), (1, 2))
            + M(F(3, 2), (2, 1), (2, 1)) + M(F(3, 2), (2, 2), (2, 2))
            - M(3, (2, 1), (2, 2))
            + M(2, (3, 2), (1, 1)) + M(2, (3, 1), (1, 2))
            - M(2, (3, 1), (1, 1)) - M(2, (3, 2), (1, 2)))


class PrimaryCheck(NamedTuple):
    name: str
    weight_expected: int
    weight_ok: bool
    invariant: bool
    primary: bool

    @property
    def ok(self) -> bool:
        return self.weight_ok and self.invariant and self.primary


def _conformal_axioms(om: FockState) -> bool:
    """omega_0 om = T om, omega_1 om = 2 om, omega_2 om = 0,
    omega_3 om = (c/2) |0> with c = 3."""
    vac = FockState.vacuum(om.rank, om.basis)
    return (P(om, 0, om) == translate(om)
            and P(om, 1, om) == om.scale(2)
            and P(om, 2, om).is_zero()
            and P(om, 3, om) == vac.scale(F(3, 2)))


def verify_primaries(which: str) -> list:
    """Check weight, invariance and primality for a named family.

    which: "S3", "Z3" or "H2".  The conformal vector is checked against its
    own axioms instead of primality.
    """
    checks = []
    if which == "S3":
        vectors = s3_primary_vectors()
        group = "S3"
    elif which == "Z3":
        vectors = z3_primary_vectors()
        group = "Z3"
    elif which == "H2":
        v = pair_orbifold_primary()
        swap_ok = act(Permutation((2, 1)), v) == v
        checks.append(PrimaryCheck("H", 4, v.weight() == 4, swap_ok,
                                   is_primary(v)))
        return checks
    else:
        raise ValueError(f"unknown family {which!r}")

    for name, (v, wt) in vectors.items():
        weight_ok = v.weight() == wt
        invariant = is_invariant(group, v)
        if name == "omega":
            good = _conformal_axioms(v)
        else:
            good = is_primary(v)
        checks.append(PrimaryCheck(name, wt, weight_ok, invariant, good))
    return checks
