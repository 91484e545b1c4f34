"""Exact linear algebra over Q: incremental echelon bases, solves, and
fraction-free determinants.

Vectors are sparse dicts keyed by arbitrary hashable, comparable labels
(Fock monomials in practice), with rational (``int`` or ``Fraction``)
coefficients; anything else, such as a Q(z) scalar, raises TypeError.  The
echelon structures are deterministic: pivots are chosen as the largest label
under the natural ordering.

Elimination is fraction-free.  An input vector has its denominators
cleared by their lcm, and every stored row is a primitive integer vector:
content (gcd of the coefficients) 1 and a positive pivot coefficient.  A vector is reduced against a row by cross-multiplication,
vec <- (a/g) vec - (b/g) row, with a the row's pivot coefficient, b the
vector's and g = gcd(a, b), so no step leaves the integers.  A remainder is
therefore known only up to a nonzero scalar; ``reduce`` returns its primitive
form, which spans the same line.  Rank, spans and solve coordinates do not
depend on that scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integral(vec: dict):
    """(den, ints): den the lcm of the denominators of vec, ints = den * vec
    as a new dict of Python ints without zero entries."""
    try:
        den = lcm(*(v.denominator for v in vec.values()))
    except AttributeError:
        raise TypeError("echelon coefficients must be rational") from None
    return den, {k: v.numerator * (den // v.denominator)
                 for k, v in vec.items() if v}


def _primitive(vec: dict) -> dict:
    """A nonzero integer vector divided by its content, signed so that the
    coefficient at its largest label is positive."""
    g = gcd(*vec.values())
    if vec[max(vec)] < 0:
        g = -g
    return vec if g == 1 else {k: v // g for k, v in vec.items()}


class Echelon:
    """Incremental echelon family of sparse vectors over Q, kept as
    primitive integer rows."""

    def __init__(self):
        self.rows: dict = {}   # pivot label -> primitive integer row

    def _eliminate(self, vec: dict):
        """(remainder, steps) for an integer vector, which it consumes: vec
        reduced against the stored rows until its leading label has no row,
        and the (pivot, a, b) of each step vec <- a * vec - b * row."""
        rows = self.rows
        steps = []
        while vec:
            pivot = max(vec)
            row = rows.get(pivot)
            if row is None:
                break
            a, b = row[pivot], vec[pivot]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                vec = {k: a * v for k, v in vec.items()}
            for k, v in row.items():
                new = vec.get(k, 0) - b * v
                if new:
                    vec[k] = new
                else:
                    del vec[k]
            steps.append((pivot, a, b))
        return vec, steps

    def reduce(self, vec: dict) -> dict:
        """Remainder of vec after elimination against the stored rows, up to
        a nonzero scalar: {} if vec lies in the span, else a primitive
        integer vector with a positive leading coefficient."""
        rem = self._eliminate(_integral(vec)[1])[0]
        return _primitive(rem) if rem else rem

    def insert(self, vec: dict) -> bool:
        """Reduce and store; True if the vector enlarged the span."""
        rem = self.reduce(vec)
        if not rem:
            return False
        self.rows[max(rem)] = rem
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


class SolverBasis(Echelon):
    """Echelon that also remembers each row's coordinates in the inserted
    vectors (numbered 0, 1, ... in insertion order)."""

    def __init__(self):
        super().__init__()
        self.coords: dict = {}      # pivot label -> coordinates of its row
        self.n_inserted = 0

    def _combine(self, steps):
        """(combo, scale) for the steps of one elimination of vec: scale is
        the product of the step multipliers a, and vec equals
        remainder / scale + sum f * row, where each step's f is its b over
        the product of the multipliers up to and including it; combo holds
        that sum in the coordinates of the inserted vectors."""
        combo: dict = {}
        scale = 1
        for pivot, a, b in steps:
            scale *= a
            f = Fraction(b, scale)
            for k, v in self.coords[pivot].items():
                new = combo.get(k, 0) + f * v
                if new:
                    combo[k] = new
                else:
                    del combo[k]
        return combo, scale

    def insert(self, vec: dict) -> bool:
        index = self.n_inserted
        self.n_inserted += 1
        den, ints = _integral(vec)
        rem, steps = self._eliminate(ints)
        if not rem:
            return False
        row = _primitive(rem)
        pivot = max(row)
        combo, scale = self._combine(steps)
        # rem = scale * (den * vec - combo) and row = rem * row[p] / rem[p]
        lam = Fraction(row[pivot], rem[pivot]) * scale
        coords = {index: lam * den}
        for k, v in combo.items():
            coords[k] = -lam * v
        self.rows[pivot] = row
        self.coords[pivot] = coords
        return True

    def solve(self, target: dict):
        """Coefficients expressing target over the inserted vectors, or None.

        Returns a dict {insertion index: Fraction}, without zero entries; the
        accepted vectors are independent, so the coordinates are unique.
        """
        den, ints = _integral(target)
        rem, steps = self._eliminate(ints)
        if rem:
            return None
        combo = self._combine(steps)[0]
        return {k: v / den for k, v in combo.items()} if den != 1 else combo


def det_bareiss(matrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination.

    Entries may be Fractions; the algorithm clears denominators first so the
    elimination itself stays in integers.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in row] for row in matrix]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    scale = Fraction(1)
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        scale /= den
        m.append([int(x * den) for x in row])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return scale * sign * m[n - 1][n - 1]
