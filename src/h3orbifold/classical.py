"""Classical invariant theory side: sparse polynomials in the commuting
variables x_i(m) / y_i(m) and the determinant-style relations among the
polarized power sums.

Variables are tagged ("x", i, m) for the standard family and ("y", i, m) for
the diagonalized one.  Monomial keys are sorted tuples of (variable, exponent).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, groupby, product
from math import lcm

from .symmetry import FAMILIES


class CPoly:
    """Sparse multivariate polynomial over Q.

    Coefficients are ``int`` or ``Fraction`` and are never normalised:
    ``constant`` and ``variable`` give ``int`` for an integral value, a sum
    or product has the type that Python's arithmetic gives it (one with a
    ``Fraction`` operand stays a ``Fraction``, ``Fraction(1, 1)`` included).
    The two compare and print alike."""

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


def _generator_codes(family: str, slots, base: int) -> tuple:
    """The monomials of the commutative shadow of the generator
    ``gen(family, *slots)``, each a tuple of variable codes, the variable of
    field f at slot m coded f * base + m, one per field pattern of
    ``symmetry.FAMILIES[family]``; every coefficient is 1.  ``q0``,
    ``cpoly_polarization`` and ``cpoly_relation`` all read the generators
    from here."""
    patterns = FAMILIES[family][1]
    if len(slots) != len(patterns[0]):
        raise ValueError(f"expected {len(patterns[0])} slots, got {len(slots)}")
    if min(slots, default=0) < 0:
        raise ValueError("slots must be >= 0")
    return tuple(tuple(f * base + m for f, m in zip(fields, slots))
                 for fields in patterns)


def _decode(key: tuple, base: int, tag: str) -> tuple:
    """The ``CPoly`` monomial, in the variables tagged tag, of a sorted
    tuple of variable codes: the run length of each code is its variable's
    exponent."""
    return tuple(((tag, *divmod(code, base)), len(list(same)))
                 for code, same in groupby(key))


def _expand(c: int, tables) -> dict:
    """{sorted code tuple: int}: c times the product of the factor tables,
    one entry per pick of one monomial from every table."""
    out: dict = {}
    for pick in product(*tables):
        key = tuple(sorted(chain.from_iterable(pick)))
        out[key] = out.get(key, 0) + c
    return out


def _shadow(k: int, family: str, tag: str, slots) -> CPoly:
    """The commutative shadow of the generator of ``family`` (one of k = 1,
    2 or 3 slots) in the variables tagged tag."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    slots = tuple(slots)
    base = max(slots, default=0) + 1
    out = CPoly()
    for codes in _generator_codes(family, slots, base):
        out._add(_decode(tuple(sorted(codes)), base, tag), 1)
    return out


def cpoly_polarization(k: int, slots) -> CPoly:
    """Polarized power sum q_k(m_1..m_k) = sum_i x_i(m_1)...x_i(m_k), the
    shadow of omega{k}."""
    return _shadow(k, f"omega{k}", "x", slots)


def q0(k: int, slots) -> CPoly:
    """The diagonalized-family generators q1_0, q2_0, q3_0, the shadows of
    omega{k}_0."""
    return _shadow(k, f"omega{k}_0", "y", slots)


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


def relation_arity(rel: str) -> int:
    """How many indices the relation family rel takes: one past the largest
    slot position in its terms."""
    return 1 + max(p for _, factors in RELATION_TERMS[rel]
                   for _, pos in factors for p in pos)


def cpoly_relation(rel: str, multi_index) -> CPoly:
    """Expand one of the relation families at a multi-index; must be zero.

    One integer pass, equal to the sum of the term products
    ``coeff * q0(...) * ...`` as ``CPoly`` forms it, coefficient types
    included.  A variable y_i(m) is coded i * base + m with base above every
    index, an injective code whose integer order is the order of the
    ``("y", i, m)`` tags.  Each pick of one monomial per factor of a term
    adds the term's coefficient, scaled by the lcm L of all the
    coefficients' denominators, at the sorted tuple of its codes.  Only the
    monomials that survive are decoded and divided by L once.

    Types follow ``CPoly``: a coefficient becomes a ``Fraction`` when a term
    with a fractional coefficient is added to it, and only a sum that is
    zero at the end of a term starts over as an ``int``.  So each term is
    merged on its own, and a surviving coefficient is a ``Fraction`` exactly
    when a fractional term reached it since its sum was last zero at a
    term's end.
    """
    terms = RELATION_TERMS.get(rel)
    if terms is None:
        raise ValueError(f"unknown relation family {rel!r}")
    idx = tuple(multi_index)
    if len(idx) != relation_arity(rel):
        raise ValueError(f"{rel} takes {relation_arity(rel)} indices")
    base = max(idx, default=0) + 1
    expanded = []
    for coeff, factors in terms:
        coeff = Fraction(coeff)
        tables = [_generator_codes(f"omega{k}_0", [idx[p] for p in pos], base)
                  for k, pos in factors]
        if coeff:
            expanded.append((coeff, tables))
    den = lcm(*(c.denominator for c, _ in expanded))
    total: dict = {}
    reached: set = set()   # keys a fractional term reached since last zero
    for coeff, tables in expanded:
        fractional = coeff.denominator != 1
        c = coeff.numerator * (den // coeff.denominator)
        for key, v in _expand(c, tables).items():
            v += total.get(key, 0)
            total[key] = v
            if not v:
                reached.discard(key)
            elif fractional:
                reached.add(key)
    out = CPoly()
    for key, v in total.items():
        if v:
            out.terms[_decode(key, base, "y")] = (
                Fraction(v, den) if key in reached else v // den)
    return out
