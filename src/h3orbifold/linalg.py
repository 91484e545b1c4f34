"""Exact linear algebra over Q: incremental echelon bases, solves, and
fraction-free determinants.

Vectors are sparse dicts keyed by arbitrary hashable, comparable labels
(Fock monomials in practice).  The echelon structures are deterministic:
pivots are chosen as the largest label under the natural ordering.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _sub_scaled(vec: dict, other: dict, factor: Fraction) -> dict:
    """vec - factor * other, dropping zeros."""
    out = dict(vec)
    for k, v in other.items():
        new = out.get(k, Fraction(0)) - factor * v
        if new:
            out[k] = new
        else:
            out.pop(k, None)
    return out


class Echelon:
    """Incremental reduced family of sparse vectors over Q."""

    def __init__(self):
        self.rows: dict = {}   # pivot label -> vector (pivot coefficient 1)

    def _eliminate(self, vec: dict):
        """(remainder, steps): vec reduced against the stored rows until its
        leading label has no row, and the (pivot, factor) pairs it took."""
        vec = dict(vec)
        steps = []
        while vec:
            pivot = max(vec)
            row = self.rows.get(pivot)
            if row is None:
                break
            factor = vec[pivot]
            vec = _sub_scaled(vec, row, factor)
            steps.append((pivot, factor))
        return vec, steps

    def _store(self, rem: dict):
        """Store a nonzero remainder as a normalised row; (pivot, 1/lead)."""
        pivot = max(rem)
        inv = Fraction(1) / rem[pivot]
        self.rows[pivot] = {k: v * inv for k, v in rem.items()}
        return pivot, inv

    def reduce(self, vec: dict) -> dict:
        """Remainder of vec after elimination against the stored rows."""
        return self._eliminate(vec)[0]

    def insert(self, vec: dict) -> bool:
        """Reduce and store; True if the vector enlarged the span."""
        rem = self.reduce(vec)
        if not rem:
            return False
        self._store(rem)
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

    def _combine(self, coords: dict, steps, sign) -> dict:
        """coords - sign * sum of factor * (coordinates of the pivot's row)."""
        for pivot, factor in steps:
            coords = _sub_scaled(coords, self.coords[pivot], sign * factor)
        return coords

    def insert(self, vec: dict) -> bool:
        index = self.n_inserted
        self.n_inserted += 1
        rem, steps = self._eliminate(vec)
        if not rem:
            return False
        coords = self._combine({index: Fraction(1)}, steps, 1)
        pivot, inv = self._store(rem)
        self.coords[pivot] = {k: v * inv for k, v in coords.items()}
        return True

    def solve(self, target: dict):
        """Coefficients expressing target over the inserted vectors, or None.

        Returns a dict {insertion index: coefficient}.
        """
        rem, steps = self._eliminate(target)
        if rem:
            return None
        return self._combine({}, steps, -1)


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
