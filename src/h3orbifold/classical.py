"""Classical invariant theory side: sparse polynomials in the commuting
variables x_i(m) / y_i(m) and the determinant-style relations among the
polarized power sums.

Variables are tagged ("x", i, m) for the standard family and ("y", i, m) for
the diagonalized one.  Monomial keys are sorted tuples of (variable, exponent).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class CPoly:
    """Sparse multivariate polynomial over Q.

    Integral coefficients are kept as ``int`` and only the others as
    ``Fraction``; the two compare and print alike."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = {}
        if terms:
            for mon, c in terms.items():
                self._add(mon, c)

    @classmethod
    def variable(cls, tag, index: int, slot: int) -> "CPoly":
        return cls({(((tag, index, slot), 1),): 1})

    @classmethod
    def constant(cls, c) -> "CPoly":
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
        return cls({(): c} if c else {})

    def _add(self, mon, c):
        cur = self.terms.get(mon)
        new = c if cur is None else cur + c
        if new:
            self.terms[mon] = new
        elif cur is not None:
            del self.terms[mon]

    def __add__(self, other):
        out = CPoly(dict(self.terms))
        for mon, c in other.terms.items():
            out._add(mon, c)
        return out

    def __sub__(self, other):
        out = CPoly(dict(self.terms))
        for mon, c in other.terms.items():
            out._add(mon, -c)
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CPoly.constant(other) if other else CPoly()
        out = CPoly()
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                merged = dict(d1)
                for var, e in m2:
                    merged[var] = merged.get(var, 0) + e
                key = tuple(sorted(merged.items()))
                out._add(key, c1 * c2)
        return out

    def __rmul__(self, other):
        return self * other

    def scale(self, c) -> "CPoly":
        c = Fraction(c)
        out = CPoly()
        if c:
            for mon, v in self.terms.items():
                out.terms[mon] = v * c
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, CPoly) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mon, c in sorted(self.terms.items()):
            body = "*".join(f"{t}{i}({m})^{e}" if e > 1 else f"{t}{i}({m})"
                            for (t, i, m), e in mon)
            bits.append(f"{c}*{body}" if body else str(c))
        return " + ".join(bits)


def cpoly_polarization(k: int, slots, rank: int = 3) -> CPoly:
    """Polarized power sum q_k(m_1..m_k) = sum_i x_i(m_1)...x_i(m_k)."""
    slots = tuple(slots)
    if len(slots) != k:
        raise ValueError(f"expected {k} slots, got {len(slots)}")
    if any(m < 0 for m in slots):
        raise ValueError("slots must be >= 0")
    out = CPoly()
    for i in range(1, rank + 1):
        term = CPoly.constant(1)
        for m in slots:
            term = term * CPoly.variable("x", i, m)
        out = out + term
    return out


def _y(i: int, m: int) -> CPoly:
    return CPoly.variable("y", i, m)


def q0(k: int, slots) -> CPoly:
    """The diagonalized-family generators q1_0, q2_0, q3_0."""
    slots = tuple(slots)
    if len(slots) != k:
        raise ValueError(f"expected {k} slots, got {len(slots)}")
    if any(m < 0 for m in slots):
        raise ValueError("slots must be >= 0")
    if k == 1:
        return _y(1, slots[0])
    if k == 2:
        a, b = slots
        return _y(2, a) * _y(3, b) + _y(3, a) * _y(2, b)
    if k == 3:
        a, b, c = slots
        return (_y(2, a) * _y(2, b) * _y(2, c)
                + _y(3, a) * _y(3, b) * _y(3, c))
    raise ValueError("k must be 1, 2 or 3")


# The three relation families among the q's.  Each is a list of
# (coefficient, [factor descriptions]) where a factor is (k, slot positions).
# Positions are 0-based into the multi-index.

_D6C1_TERMS = [
    (1, [(2, (0, 1)), (2, (2, 3)), (2, (4, 5))]),
    (-1, [(2, (0, 1)), (2, (2, 5)), (2, (3, 4))]),
    (1, [(2, (0, 3)), (2, (1, 5)), (2, (2, 4))]),
    (-1, [(2, (0, 3)), (2, (1, 2)), (2, (4, 5))]),
    (1, [(2, (0, 4)), (2, (1, 3)), (2, (2, 5))]),
    (-1, [(2, (0, 4)), (2, (1, 5)), (2, (2, 3))]),
    (1, [(2, (0, 5)), (2, (1, 2)), (2, (3, 4))]),
    (-1, [(2, (0, 5)), (2, (1, 3)), (2, (2, 4))]),
]

# The 6-index relation mixing the two cubic sums.  The quadratic tail of the
# source display (four half-integer terms) does not cancel the mixed part of
# the cubic products; no four-to-six-term half-integer tail does.  The tail
# below is an eight-term half-integer completion, solved for exactly; it keeps
# three of the four displayed terms with their signs and is unique up to
# adding multiples of the pure-quadratic family above.
_D6C2_QUADRATIC_TAIL = [
    (Fraction(1, 2), [(2, (0, 1)), (2, (2, 3)), (2, (4, 5))]),
    (Fraction(-1, 2), [(2, (0, 1)), (2, (2, 4)), (2, (3, 5))]),
    (Fraction(-1, 2), [(2, (0, 2)), (2, (1, 3)), (2, (4, 5))]),
    (Fraction(1, 2), [(2, (0, 2)), (2, (1, 4)), (2, (3, 5))]),
    (Fraction(1, 2), [(2, (0, 2)), (2, (1, 5)), (2, (3, 4))]),
    (Fraction(-1, 2), [(2, (0, 3)), (2, (1, 4)), (2, (2, 5))]),
    (Fraction(1, 2), [(2, (0, 4)), (2, (1, 2)), (2, (3, 5))]),
    (Fraction(-1, 2), [(2, (0, 4)), (2, (1, 5)), (2, (2, 3))]),
]

_D6C2_TERMS = [
    (1, [(3, (0, 1, 2)), (3, (3, 4, 5))]),
    (-1, [(3, (0, 1, 3)), (3, (2, 4, 5))]),
] + _D6C2_QUADRATIC_TAIL

_D5C_TERMS = [
    (1, [(2, (0, 1)), (3, (2, 3, 4))]),
    (-1, [(2, (0, 4)), (3, (1, 2, 3))]),
    (-1, [(2, (1, 4)), (3, (0, 2, 3))]),
    (-1, [(2, (2, 3)), (3, (0, 1, 4))]),
    (1, [(2, (2, 4)), (3, (0, 1, 3))]),
    (1, [(2, (3, 4)), (3, (0, 1, 2))]),
]

RELATION_TERMS = {"D6C1": _D6C1_TERMS, "D6C2": _D6C2_TERMS, "D5C": _D5C_TERMS}
_RELATION_ARITY = {"D6C1": 6, "D6C2": 6, "D5C": 5}


def cpoly_relation(rel: str, multi_index) -> CPoly:
    """Expand one of the relation families at a multi-index; must be zero."""
    terms = RELATION_TERMS.get(rel)
    if terms is None:
        raise ValueError(f"unknown relation family {rel!r}")
    idx = tuple(multi_index)
    if len(idx) != _RELATION_ARITY[rel]:
        raise ValueError(f"{rel} takes {_RELATION_ARITY[rel]} indices")
    out = CPoly()
    for coeff, factors in terms:
        term = CPoly.constant(coeff)
        for k, pos in factors:
            term = term * q0(k, tuple(idx[p] for p in pos))
        out = out + term
    return out
