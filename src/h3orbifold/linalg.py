"""Exact linear algebra over Q: incremental echelon bases, solves, and
fraction-free determinants.

Vectors are sparse dicts keyed by arbitrary hashable, comparable labels
(Fock monomials in practice).  The echelon structures are deterministic:
pivots are chosen as the largest label under the natural ordering.
"""

from __future__ import annotations

from fractions import Fraction


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

    def reduce(self, vec: dict) -> dict:
        """Remainder of vec after elimination against the stored rows."""
        vec = dict(vec)
        while vec:
            pivot = max(vec)
            row = self.rows.get(pivot)
            if row is None:
                return vec
            vec = _sub_scaled(vec, row, vec[pivot])
        return vec

    def insert(self, vec: dict) -> bool:
        """Reduce and store; True if the vector enlarged the span."""
        rem = self.reduce(vec)
        if not rem:
            return False
        pivot = max(rem)
        inv = Fraction(1) / rem[pivot]
        self.rows[pivot] = {k: v * inv for k, v in rem.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


class SolverBasis:
    """Echelon family that remembers coordinates in the inserted vectors."""

    def __init__(self):
        self.rows: list = []        # (pivot, vector, coords)
        self.pivots: dict = {}      # pivot label -> row index
        self.n_inserted = 0

    def insert(self, vec: dict) -> bool:
        coords = {self.n_inserted: Fraction(1)}
        self.n_inserted += 1
        vec = dict(vec)
        while vec:
            pivot = max(vec)
            idx = self.pivots.get(pivot)
            if idx is None:
                inv = Fraction(1) / vec[pivot]
                vec = {k: v * inv for k, v in vec.items()}
                coords = {k: v * inv for k, v in coords.items()}
                self.pivots[pivot] = len(self.rows)
                self.rows.append((pivot, vec, coords))
                return True
            _, row_vec, row_coords = self.rows[idx]
            f = vec[pivot]
            vec = _sub_scaled(vec, row_vec, f)
            coords = _sub_scaled(coords, row_coords, f)
        return False

    def solve(self, target: dict):
        """Coefficients expressing target over the inserted vectors, or None.

        Returns a dict {insertion index: coefficient}.
        """
        vec = dict(target)
        coords: dict = {}
        while vec:
            pivot = max(vec)
            idx = self.pivots.get(pivot)
            if idx is None:
                return None
            _, row_vec, row_coords = self.rows[idx]
            f = vec[pivot]
            vec = _sub_scaled(vec, row_vec, f)
            for k, v in row_coords.items():
                new = coords.get(k, Fraction(0)) + f * v
                if new:
                    coords[k] = new
                else:
                    coords.pop(k, None)
        return coords


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
        den = 1
        for x in row:
            den = den * x.denominator // _gcd(den, x.denominator)
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


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a if a >= 0 else -a


def lagrange_interpolate(points) -> list:
    """Coefficients (ascending) of the unique poly through (x, y) points."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        # basis polynomial prod_{j!=i} (t - x_j) / (x_i - x_j)
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            num = _poly_mul_linear(num, -xs[j])
            den *= xs[i] - xs[j]
        f = ys[i] / den
        for k, c in enumerate(num):
            coeffs[k] += f * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul_linear(poly, constant):
    """poly * (t + constant)."""
    out = [Fraction(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i] += c * constant
        out[i + 1] += c
    return out


def poly_eval(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
