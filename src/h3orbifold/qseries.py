"""Truncated q-series with fractional exponents and the orbifold characters.

A series is a rational offset plus coefficients on the lattice (1/D)Z,
complete for exponents up to a stated truncation order.  Every character is
defined once, as a table of Euler-product terms (``character_terms``): the
exact series expand each term with ``_euler_product``,
``modular.character_value`` evaluates the same terms in floats, and
``burnside_check`` (``h3orb char --check``) class-averages the direct
fixed-point counts with them.

``_euler_product`` divides by Euler's pentagonal series
prod_{n>=1} (1 - x^n) = sum_{j in Z} (-1)^j x^(j(3j-1)/2) (Andrews, *The
Theory of Partitions*, ch. 1), once per step of a term, in place of one
pass of the partition recurrence per part.  It is sound because all its
arithmetic is exact modulo x^(top+1), where the parts above the truncation
are 1, so the coefficients are those of the per-part recurrence.  With
only O(sqrt N) pentagonal exponents up to N, a step costs O(N^1.5) big-int
additions on N lattice points where the per-part passes cost O(N^2).

Coefficients stay Python ints wherever they are integral by construction:
a series keeps an ``int`` coefficient as an ``int`` and makes a ``Fraction``
only of any other value.  A class average sums the weighted rows in ints
and divides once per coefficient, keeping an ``int`` wherever the divisor
divides the sum (for the class sums it always does).  ``int`` and
``Fraction`` coefficients of equal value compare and print alike, so the
output does not depend on which one a series holds.  The Burnside oracle
``fock_trace_series`` counts fixed monomials directly on their
(level, field) index tuples.

Two functions memoise their results for the process (``lru_cache``), and
neither holds a series or a verdict: ``_euler_product`` keeps the row of each
(D, order, strides, factors) as a tuple of ints, and ``_fixed_counts`` keeps,
per weight, the number of monomials each of the six permutations of the
three fields fixes, made in one pass over the monomials of that weight.
Both are sound to keep: a row depends only on the value of its arguments
and a count only on (permutation, weight), both are immutable, and equal
``int`` and ``Fraction`` orders hash alike, so they share one entry.  Every
character call still builds a fresh ``FracSeries``, so a caller may change
the one it gets, and every ``burnside_check`` compares the rows again, with
no series between them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, lcm

from .fock import ALPHA, enumerate_basis
from .symmetry import GROUPS, _action_table, _moved

DEFAULT_ORDER = 12
#: largest truncation order the CLI accepts (``dims --max-weight``,
#: ``char --order``)
MAX_SERIES_ORDER = 1000
#: most generator weights ``w_algebra_free_character`` takes: each costs one
#: Euler pass and up to order - 1 factor passes, so at order 1000 this many
#: weights of 1000 take about 2 s
MAX_FREE_WEIGHTS = 32


class FracSeries:
    """sum_k coeffs[k] q^(offset + k/D), truncated at exponent <= order.

    A coefficient is an ``int`` or a ``Fraction``; zeros are not stored."""

    __slots__ = ("D", "offset", "coeffs", "order")

    def __init__(self, D: int = 1, offset=0, coeffs=None, order=DEFAULT_ORDER):
        if D < 1:
            raise ValueError("lattice denominator must be positive")
        self.D = D
        self.offset = Fraction(offset)
        self.order = Fraction(order)
        self.coeffs: dict = {}
        if coeffs:
            # the largest lattice index k with offset + k/D <= order
            bound = floor((self.order - self.offset) * D)
            for k, c in coeffs.items():
                if not isinstance(c, (int, Fraction)):
                    c = Fraction(c)
                if c and k <= bound:
                    self.coeffs[k] = c

    def rebase(self, D: int) -> "FracSeries":
        """Move to a finer lattice (D must be a multiple of the current one)."""
        if D % self.D:
            raise ValueError("new lattice must refine the old one")
        f = D // self.D
        return FracSeries(D, self.offset,
                          {k * f: c for k, c in self.coeffs.items()}, self.order)

    def coefficient(self, exponent):
        """Coefficient of q^exponent (absolute, offset included), an int or
        a Fraction."""
        e = Fraction(exponent)
        if e > self.order:
            raise ValueError(f"exponent {e} beyond truncation {self.order}")
        rel = (e - self.offset) * self.D
        if rel.denominator != 1:
            return 0
        return self.coeffs.get(int(rel), 0)

    def integer_slice(self, count: int) -> list:
        """Coefficients at offset + 0, offset + 1, ..., offset + count - 1,
        read at the lattice indices 0, D, 2D, ...; a slice past the
        truncation raises ValueError."""
        # the first n >= 0 with offset + n beyond the order
        past = max(floor(self.order - self.offset) + 1, 0)
        if count > past:
            e = self.offset + past
            raise ValueError(f"exponent {e} beyond truncation {self.order}")
        return [self.coeffs.get(n * self.D, 0) for n in range(count)]

    # -- arithmetic -----------------------------------------------------

    def _aligned(self, other: "FracSeries"):
        """Rebase both series onto a common lattice and common offset."""
        D = lcm(self.D, other.D)
        offset = min(self.offset, other.offset)
        out = []
        for s in (self.rebase(D), other.rebase(D)):
            shift = (s.offset - offset) * D
            if shift.denominator != 1:
                raise ValueError("offsets differ by a non-lattice amount")
            out.append({k + int(shift): c for k, c in s.coeffs.items()})
        return D, offset, out[0], out[1]

    def __add__(self, other):
        D, offset, ca, cb = self._aligned(other)
        order = min(self.order, other.order)
        for k, c in cb.items():
            ca[k] = ca.get(k, 0) + c
        return FracSeries(D, offset, ca, order)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "FracSeries":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        out = FracSeries(self.D, self.offset, {}, self.order)
        if c:
            out.coeffs = {k: v * c for k, v in self.coeffs.items()}
        return out

    def __mul__(self, other):
        D = lcm(self.D, other.D)
        a = self.rebase(D)
        b = other.rebase(D)
        offset = a.offset + b.offset
        # truncation: a is complete to order_a, so products are complete to
        # min(order_a + offset_b-part, ...); keep the conservative bound
        order = min(a.order + b.offset, b.order + a.offset)
        coeffs: dict = {}
        bound = (order - offset) * D
        for k1, c1 in a.coeffs.items():
            for k2, c2 in b.coeffs.items():
                k = k1 + k2
                if k > bound:
                    continue
                coeffs[k] = coeffs.get(k, 0) + c1 * c2
        return FracSeries(D, offset, coeffs, order)

    def shift(self, delta) -> "FracSeries":
        """Multiply by q^delta."""
        return FracSeries(self.D, self.offset + Fraction(delta),
                          dict(self.coeffs), self.order + Fraction(delta))

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self.first_difference(other) is None

    def first_difference(self, other):
        """Smallest exponent (within both truncations) where the two series
        differ, or None."""
        D, offset, ca, cb = self._aligned(other)
        bound = floor((min(self.order, other.order) - offset) * D)
        diffs = [k for k in set(ca) | set(cb)
                 if k <= bound and ca.get(k, 0) != cb.get(k, 0)]
        if not diffs:
            return None
        return offset + Fraction(min(diffs), D)

    def __repr__(self):
        bits = []
        for k in sorted(self.coeffs)[:8]:
            e = self.offset + Fraction(k, self.D)
            bits.append(f"{self.coeffs[k]}*q^({e})")
        more = " + ..." if len(self.coeffs) > 8 else ""
        return f"<FracSeries {' + '.join(bits) or '0'}{more} (order {self.order})>"

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "offset": str(self.offset),
            "order": str(self.order),
            "coeffs": {str(k): str(c) for k, c in sorted(self.coeffs.items())},
        }


def _pentagonal_exponents(top: int) -> tuple:
    """The exponents g in 1..top of Euler's pentagonal series
    E(x) = prod_{n>=1} (1 - x^n) = sum_{j in Z} (-1)^j x^(j(3j-1)/2), as two
    ascending lists: those with coefficient -1 (odd j) and those with +1."""
    minus, plus = [], []
    j, g = 1, 1
    while g <= top:
        (minus if j % 2 else plus).extend(e for e in (g, g + j) if e <= top)
        j += 1
        g = j * (3 * j - 1) // 2
    return minus, plus


@lru_cache(maxsize=None)
def _euler_product(D: int, order, strides: tuple, factors: tuple = ()) -> tuple:
    """The coefficients of x^k, x = q^(1/D), k = 0, 1, ..., top = order*D, of
    prod_{p in strides} prod_{n>=1} (1 - x^(p n))^(-1) times
    prod_{m in factors} (1 - x^m), for positive integer strides and factors,
    as a tuple of Python ints, kept for the process (see the module
    docstring): strides and factors must be hashable, and a caller shares
    the one immutable row of its arguments.

    Each stride p is one division by E(x^p), E the pentagonal series of
    ``_pentagonal_exponents``: for k ascending, in place,
    a_k <- a_k - sum_{g>=1} e_g a_(k-pg), e_g the coefficient of x^g in E.
    Each factor is one descending pass a_k <- a_k - a_(k-m).

    Sound: every step is exact in Z[x] modulo x^(top+1), and truncation is a
    ring homomorphism from the power series.  E(x^p) has constant term 1, so
    it is a unit there and the recurrence gives the quotient exactly, and
    prod_{n>=1} (1 - x^(pn)) = E(x^p).  A part pn > top is 1 modulo
    x^(top+1), so the list equals, element for element, the one a pass of
    the partition recurrence per part pn <= top gives.

    Cost: E has about 2 sqrt(2k/3) exponents up to k, so a stride takes
    O(top^1.5 / sqrt(p)) big-int additions where one pass per part takes
    about top^2 / (2p), and a factor takes top - m."""
    top = int(Fraction(order) * D)
    coeffs = [1] + [0] * top
    for p in strides:
        minus, plus = _pentagonal_exponents(top // p)
        minus = [g * p for g in minus]
        plus = [g * p for g in plus]
        for k in range(p, top + 1):
            c = coeffs[k]
            for g in minus:
                if g > k:
                    break
                c += coeffs[k - g]
            for g in plus:
                if g > k:
                    break
                c -= coeffs[k - g]
            coeffs[k] = c
    for m in factors:
        for k in range(top, m - 1, -1):
            coeffs[k] -= coeffs[k - m]
    return tuple(coeffs)


def twist_weight(p: int, r) -> Fraction:
    """Lowest conformal weight of the cyclically twisted module:
    (1/(4p^2)) * sum_i i (p-i) r_i."""
    r = tuple(r)
    if p < 2:
        raise ValueError("order must be >= 2")
    if len(r) != p - 1:
        raise ValueError(f"need {p - 1} eigenspace dimensions")
    total = sum(i * (p - i) * ri for i, ri in enumerate(r, start=1))
    return Fraction(total, 4 * p * p)


#: the graded dimensions of the orbifolds, by group
ORBIFOLD_GROUPS = ("S3", "Z3")

#: class sums over S3: (divisor, ((cycle type, weight), ...)).  S3 and Z3
#: average the traces over the group; sgn and st weight them with the sign
#: and standard characters, giving the isotypic pieces of the Fock space;
#: orb is the S3 average and vac the identity trace alone
_CLASS_DATA = {
    "S3": (6, (((1, 1, 1), 1), ((2, 1), 3), ((3,), 2))),
    "Z3": (3, (((1, 1, 1), 1), ((3,), 2))),
    "sgn": (6, (((1, 1, 1), 1), ((2, 1), -3), ((3,), 2))),
    "st": (3, (((1, 1, 1), 1), ((3,), -1))),
    "vac": (1, (((1, 1, 1), 1),)),
}
_CLASS_DATA["orb"] = _CLASS_DATA["S3"]

#: the modules with highest weights: (number of weights, lowest weight of
#: the sector, steps of the Euler product).  The untwisted Fock module is
#: the identity trace; the 2-cycle twist has modes in Z/2 on one field and
#: in Z on the other, the 3-cycle twist modes in Z/3 on one field
_HIGHEST_WEIGHT_DATA = {
    "fock": (3, 0, (1, 1, 1)),
    "theta": (2, twist_weight(2, (1,)), (Fraction(1, 2), 1)),
    "sigma": (1, twist_weight(3, (1, 1)), (Fraction(1, 3),)),
}
_WEIGHT_COUNTS = {1: "one highest weight", 2: "two highest weights",
                  3: "three highest weights"}


def character_terms(kind: str, weights=()) -> tuple:
    """The character of a module kind as (divisor, ((mult, offset, steps),
    ...)): it is (1/divisor) sum mult q^offset prod_{s in steps}
    prod_{n>=1} (1 - q^(s n))^(-1).  Every offset includes the -c/24 = -1/8
    of the three bosons.

    kind: "vac" (full rank-3 Fock space), "orb" / "sgn" / "st" (isotypic
    pieces), "fock" (highest weights w1,w2,w3), "theta" (2-cycle twist,
    w1,w3), "sigma" (3-cycle twist, w), or a group of ``ORBIFOLD_GROUPS``
    (its invariant subalgebra; S3 is orb).  The class sums take no
    weights.  The terms of one character share their offset and lattice:
    the class sums' steps are cycle types of S3, and every one sums to 3.
    An unknown kind or a wrong number of weights (any weight for a class
    sum) raises ValueError.
    """
    if kind in _CLASS_DATA:
        if weights:
            raise ValueError(f"{kind} takes no highest weights")
        divisor, classes = _CLASS_DATA[kind]
        return divisor, tuple((mult, Fraction(-3, 24), cycle_type)
                              for cycle_type, mult in classes)
    if kind not in _HIGHEST_WEIGHT_DATA:
        raise ValueError(f"unknown module kind {kind!r}")
    count, h, steps = _HIGHEST_WEIGHT_DATA[kind]
    weights = tuple(Fraction(w) for w in weights)
    if len(weights) != count:
        raise ValueError(f"{kind} takes {_WEIGHT_COUNTS[count]}")
    offset = h - Fraction(3, 24) + sum(w * w for w in weights) / 2
    return 1, ((1, offset, steps),)


def _character(divisor: int, terms, order) -> FracSeries:
    """The series of ``character_terms`` up to the order: one memoised
    ``_euler_product`` row per term on the lattice of every step, one stride
    per step; the terms summed in ints and divided once, to an int wherever
    the divisor divides the sum.  The terms share their offset (see
    ``character_terms``)."""
    D = lcm(*(Fraction(s).denominator for _, _, steps in terms for s in steps))
    rows = []
    for mult, _, steps in terms:
        row = _euler_product(D, order, tuple(int(s * D) for s in steps))
        rows.append(row if mult == 1 else [mult * c for c in row])
    offset = terms[0][1]
    return FracSeries(D, offset, {k: t // divisor if t % divisor == 0
                                  else Fraction(t, divisor)
                                  for k, t in enumerate(map(sum, zip(*rows)))
                                  if t},
                      Fraction(order) + offset)


def pochhammer_inv(step, order=DEFAULT_ORDER) -> FracSeries:
    """Expansion of prod_{n>=1} (1 - q^(step*n))^(-1) up to the order.

    Accepts fractional steps; the lattice adapts.
    """
    step = Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    return _character(1, ((1, 0, (step,)),), order)


def burnside_trace(cycle_type, order=DEFAULT_ORDER) -> FracSeries:
    """Trace series of a permutation with the given cycle type on the rank-n
    Fock space, including the q^(-n/24) prefactor."""
    cycle_type = tuple(cycle_type)
    return _character(1, ((1, Fraction(-sum(cycle_type), 24), cycle_type),),
                      order)


def orbifold_character(group: str, order=DEFAULT_ORDER) -> FracSeries:
    """Graded dimension series of the invariant subalgebra, by averaging the
    class traces."""
    if group not in ORBIFOLD_GROUPS:
        raise ValueError(f"unknown group {group!r} (use S3 or Z3)")
    return _character(*character_terms(group), order)


def module_character(kind: str, order=DEFAULT_ORDER, weights=()) -> FracSeries:
    """Characters of the module kinds of ``character_terms``; the group
    names are ``orbifold_character``'s."""
    if kind in ORBIFOLD_GROUPS:
        raise ValueError(f"unknown module kind {kind!r}")
    return _character(*character_terms(kind, weights), order)


def w_algebra_free_character(gen_weights, order=DEFAULT_ORDER) -> FracSeries:
    """Graded dimensions of a freely generated algebra with one generator per
    listed weight: prod_w prod_{m>=w} (1-q^m)^(-1), each factor expanded as
    E(q)^(-1) prod_{1<=m<w} (1-q^m): one memoised ``_euler_product`` row
    for all the weights.  A weight above the order contributes 1.  More
    than MAX_FREE_WEIGHTS weights, or a weight that is not a positive
    integer, raises ValueError before any product."""
    weights = [Fraction(w) for w in gen_weights]
    if len(weights) > MAX_FREE_WEIGHTS:
        raise ValueError(f"at most {MAX_FREE_WEIGHTS} generator weights, "
                         f"got {len(weights)}")
    if any(w <= 0 or w.denominator != 1 for w in weights):
        raise ValueError("generator weights must be positive integers, got "
                         + ", ".join(map(str, weights)))
    kept = [int(w) for w in weights if w <= order]
    coeffs = _euler_product(1, order, (1,) * len(kept),
                            tuple(m for w in kept for m in range(1, w)))
    return FracSeries(1, 0, dict(enumerate(coeffs)), order)


@lru_cache(maxsize=None)
def _fixed_counts(weight: int) -> tuple:
    """The number of creation monomials of the weight fixed by each of
    ``GROUPS["S3"]``, a tuple of ints in that order, kept for the process
    (see the module docstring); made by one pass over the monomials that
    relabels each by all six ``a``-basis action tables (``_moved``)."""
    tables = [_action_table(sigma.images, ALPHA) for sigma in GROUPS["S3"]]
    tally = [0] * len(tables)
    for mon in enumerate_basis(3, weight):
        for i, table in enumerate(tables):
            if _moved(table, mon)[0] == mon:
                tally[i] += 1
    return tuple(tally)


def fock_trace_series(sigma, max_weight: int) -> FracSeries:
    """Direct Fock-space trace of a permutation of the three fields: the
    number of creation monomials of each weight that it maps to themselves.

    The independent oracle for ``burnside_trace``: it counts every monomial
    and uses no product formula.  A monomial is a tuple of (level, field)
    pairs in canonical order, and it is fixed when its image under
    ``sigma.images``, relabelled and re-sorted by ``symmetry._moved``, is
    the monomial itself.  The counts of a weight are made once per process
    for all six permutations (``_fixed_counts``); every call builds a fresh
    series of int coefficients from them.  A permutation of size other than 3 raises
    ValueError."""
    if len(sigma.images) != 3:
        raise ValueError(f"permutation of size {len(sigma.images)} on rank 3")
    index = GROUPS["S3"].index(sigma)
    coeffs = {}
    for w in range(max_weight + 1):
        count = _fixed_counts(w)[index]
        if count:
            coeffs[w] = count
    return FracSeries(1, 0, coeffs, max_weight).shift(Fraction(-3, 24))


#: the ``h3orb char --which`` names of the orbifold characters
_GROUP_NAMES = {"s3": "S3", "z3": "Z3"}


def _named_terms(which: str, weights) -> tuple:
    """``character_terms`` of a ``char --which`` name other than "w-free";
    a module with highest weights takes zeros when none are given."""
    kind = _GROUP_NAMES.get(which, which)
    if not weights and kind in _HIGHEST_WEIGHT_DATA:
        weights = (0,) * _HIGHEST_WEIGHT_DATA[kind][0]
    return character_terms(kind, weights)


def character(which: str, order=DEFAULT_ORDER, weights=()) -> FracSeries:
    """The series ``h3orb char --which`` prints: "s3" and "z3" the orbifold
    characters, "w-free" ``w_algebra_free_character`` of one or more
    weights, and any other name the kind of ``character_terms``, a module
    with highest weights at zero weights when none are given.  An unknown
    name or a wrong list of weights raises ValueError."""
    if which == "w-free":
        if not weights:
            raise ValueError("w-free takes one or more generator weights")
        return w_algebra_free_character(weights, order)
    return _character(*_named_terms(which, weights), order)


def burnside_check(which: str, series: FracSeries, order, weights=()) -> bool:
    """The verdict of ``h3orb char --check`` on the series ``character``
    gave for (which, order, weights), passed in and not recomputed.

    Up to weight top = min(order, 6), the direct counts ``_fixed_counts`` of
    each permutation of S3 must equal the ``_euler_product`` row of its
    cycle type, the row ``burnside_trace`` is built from; both are read
    from their memos.  When every term of the character has a cycle type
    for its steps, the series' coefficient at each lattice index
    k = 0..top must also equal the counts of weight k class-averaged with
    the terms: the series is ``character``'s, so its lattice is 1/1 and
    index k is weight k above the terms' offset.  Only ints and Fractions
    are compared; no series is built, and every call compares again."""
    top = min(order, 6)
    ok = True
    counts = [_fixed_counts(w) for w in range(top + 1)]
    rows: dict = {}
    for index, sigma in enumerate(GROUPS["S3"]):
        cycle_type = sigma.cycle_type()
        direct = tuple(c[index] for c in counts)
        if direct != _euler_product(1, top, cycle_type):
            ok = False
        rows.setdefault(cycle_type, []).append(direct)
    if which == "w-free":
        return ok
    divisor, terms = _named_terms(which, weights)
    if all(steps in rows for _, _, steps in terms):
        for k in range(top + 1):
            average = sum(Fraction(mult * sum(row[k] for row in rows[steps]),
                                   divisor * len(rows[steps]))
                          for mult, _, steps in terms)
            if series.coeffs.get(k, 0) != average:
                ok = False
    return ok
