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

    def _eliminate(self, vec: dict) -> dict:
        """The remainder of an integer vector, which it consumes: vec reduced
        by steps vec <- a * vec - b * row against the stored rows until its
        leading label has no row."""
        rows = self.rows
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
        return vec

    def reduce(self, vec: dict) -> dict:
        """Remainder of vec after elimination against the stored rows, up to
        a nonzero scalar: {} if vec lies in the span, else a primitive
        integer vector with a positive leading coefficient."""
        rem = self._eliminate(_integral(vec)[1])
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


class SolverBasis:
    """Independent vectors over Q, numbered 0, 1, ... in insertion order,
    that can express a target in their span: the augmented-matrix solve.

    Every vector is tagged before elimination: each of its labels k becomes
    (1, k), and inserted vector i gains the coordinate (0, i) with
    coefficient 1, the target of ``solve`` the coordinate (0, -1).  The
    tagged vectors go through one ``Echelon``.  Tags sort below every real
    label, so a vector is reduced only while its leading label is real, and
    every pivot is real.

    Soundness.  Write T_j = (v_j, e_j) for tagged vector j, v_j its real
    part and e_j the unit vector at (0, j).  Elimination only adds multiples
    of stored rows, and clearing denominators or taking the primitive form
    scales a whole vector, so every remainder and every stored row is a
    combination sum_j g_j T_j; as the tags are distinct unit vectors, its
    coordinate at (0, j) is exactly g_j.  By induction each stored row
    combines accepted vectors only.  Vector i leaves elimination as
    r = c T_i + (rows), c != 0, since no row holds its tag.  If r keeps a
    real label, its leading label is real and is no pivot, while every row
    leads with its own real pivot; so v_i is outside the span of the rows,
    which is the span of the accepted vectors, and it is stored.  Otherwise
    the real part of r vanishes and v_i lies in that span.  So the accepted
    vectors are independent.  The target t leaves elimination as
    r = c (t, e_-1) + sum_j g_j T_j over accepted j, with c = r[(0, -1)]
    != 0.  If r holds only tags, c t + sum_j g_j v_j = 0, so
    t = sum_j (-r[(0, j)] / r[(0, -1)]) v_j: a ratio that no scaling of r
    changes, and the unique coordinates of t over the independent accepted
    vectors.  If r keeps a real label, t is outside their span.
    """

    def __init__(self):
        self._echelon = Echelon()   # rows of tagged vectors
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return self._echelon.rank

    def _remainder(self, vec: dict, tag: int) -> dict:
        """The remainder of vec tagged (0, tag), as an integer vector."""
        tagged = {(1, k): v for k, v in vec.items()}
        tagged[(0, tag)] = 1
        return self._echelon._eliminate(_integral(tagged)[1])

    def insert(self, vec: dict) -> bool:
        """Store vec; True if it is independent of the vectors before it."""
        rem = self._remainder(vec, self.n_inserted)
        self.n_inserted += 1
        pivot = max(rem)
        if pivot[0] == 0:
            return False
        self._echelon.rows[pivot] = _primitive(rem)
        return True

    def solve(self, target: dict):
        """Coefficients expressing target over the inserted vectors, or None.

        Returns a dict {insertion index: Fraction}, without zero entries; the
        accepted vectors are independent, so the coordinates are unique.
        """
        rem = self._remainder(target, -1)
        if max(rem)[0] == 1:
            return None
        c = rem.pop((0, -1))
        return {j: Fraction(-v, c) for (_, j), v in rem.items()}


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
