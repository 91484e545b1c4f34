from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from h3orbifold.linalg import Echelon, SolverBasis, det_bareiss
from h3orbifold.scalars import Scalar


def cofactor_det(m):
    """Determinant by Laplace expansion along the first row."""
    if not m:
        return F(1)
    return sum((-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_solver_insert_rejects_dependent_vectors():
    sb = SolverBasis()
    assert sb.insert({"x": F(1), "y": F(2)})
    assert sb.insert({"y": F(1), "z": F(-1)})
    assert not sb.insert({"x": F(2), "y": F(5), "z": F(-1)})
    assert sb.rank == 2
    assert sb.n_inserted == 3


def test_solver_solve_outside_span_is_none():
    sb = SolverBasis()
    sb.insert({"x": F(1), "y": F(1)})
    sb.insert({"y": F(3)})
    assert sb.solve({"z": F(1)}) is None
    assert sb.solve({"x": F(1), "z": F(1)}) is None


def test_solver_coordinates_rebuild_the_target():
    vectors = [{"a": F(2), "b": F(-1)}, {"b": F(1, 3), "c": F(5)},
               {"a": F(1), "c": F(1)}, {"a": F(3), "b": F(-4, 3), "c": F(5)}]
    sb = SolverBasis()
    for v in vectors:
        sb.insert(v)
    target = {"a": F(7), "b": F(1, 2), "c": F(-2)}
    coords = sb.solve(target)
    assert coords is not None
    rebuilt = {}
    for i, c in coords.items():
        for k, v in vectors[i].items():
            rebuilt[k] = rebuilt.get(k, 0) + c * v
    assert {k: v for k, v in rebuilt.items() if v} == target
    assert sb.solve({}) == {}


def test_echelon_rank_counts_rows():
    ech = Echelon()
    assert ech.rank == 0
    assert ech.insert({1: F(2), 0: F(1)})
    assert not ech.insert({1: F(4), 0: F(2)})
    assert ech.insert({0: F(3)})
    assert ech.rank == len(ech.rows) == 2
    # rows are primitive integer vectors with a positive pivot
    assert ech.rows[1] == {1: 2, 0: 1}
    assert ech.reduce({1: F(1), 0: F(7)}) == {}


def test_det_bareiss_matches_cofactor_expansion():
    matrices = [
        [[F(3)]],
        [[F(1, 2), F(2)], [F(-3), F(5, 7)]],
        # zero leading entry: Bareiss must swap rows
        [[F(0), F(2), F(1)], [F(1, 3), F(-1), F(4)], [F(2), F(5), F(-1, 2)]],
        # singular: third row = first + second
        [[F(1), F(2), F(3)], [F(-1, 2), F(0), F(1)], [F(1, 2), F(2), F(4)]],
        [[F(i * j + (i == j), i + 2) - F(j, 3) for j in range(4)] for i in range(4)],
    ]
    for m in matrices:
        assert det_bareiss(m) == cofactor_det(m)
    assert det_bareiss([[F(1), F(2)], [F(2), F(4)]]) == 0
    assert det_bareiss([]) == 1
    # a row permutation flips the sign as many times as its parity
    base = matrices[2]
    for perm in permutations(range(3)):
        swapped = [base[i] for i in perm]
        assert det_bareiss(swapped) == cofactor_det(swapped)


def test_q_z_coefficients_are_rejected():
    for basis in (Echelon(), SolverBasis()):
        with pytest.raises(TypeError):
            basis.insert({"x": F(1), "y": Scalar(1, 2)})
    sb = SolverBasis()
    sb.insert({"x": F(1)})
    with pytest.raises(TypeError):
        sb.solve({"x": Scalar(0, 1)})


# -- property: agreement with a plain Fraction Gauss-Jordan oracle ------------


def gauss_jordan(matrix):
    """(reduced rows, pivot columns) of a dense Fraction matrix."""
    rows = [list(r) for r in matrix]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        src = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


def oracle_rank(vectors, labels):
    return len(gauss_jordan([[F(v.get(k, 0)) for k in labels] for v in vectors])[1])


def oracle_solve(vectors, accepted, target, labels):
    """Unique coordinates of target over the accepted (independent) vectors,
    or None when target is outside their span."""
    aug = [[F(vectors[j].get(k, 0)) for j in accepted] + [F(target.get(k, 0))]
           for k in labels]
    rows, pivots = gauss_jordan(aug)
    if len(accepted) in pivots:
        return None
    return {accepted[col]: rows[r][-1] for r, col in enumerate(pivots)
            if rows[r][-1]}


_labels = st.tuples(st.integers(1, 3), st.integers(1, 3))
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
_vectors = st.dictionaries(_labels, _coeffs, max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.lists(_vectors, max_size=8), _vectors,
       st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_echelon_agrees_with_gauss_jordan(vectors, outside, weights):
    labels = sorted({k for v in vectors + [outside] for k in v})
    ech, sb = Echelon(), SolverBasis()
    accepted = []
    for i, v in enumerate(vectors):
        grows = oracle_rank(vectors[:i + 1], labels) > oracle_rank(vectors[:i], labels)
        assert ech.insert(v) == grows
        assert sb.insert(v) == grows
        if grows:
            accepted.append(i)
    assert ech.rank == sb.rank == oracle_rank(vectors, labels)
    for pivot, row in ech.rows.items():
        assert pivot == max(row) and row[pivot] > 0
        assert all(type(c) is int for c in row.values())
    inside = {}
    for w, v in zip(weights, vectors):
        for k, c in v.items():
            inside[k] = inside.get(k, 0) + w * c
    inside = {k: c for k, c in inside.items() if c}
    for target in (inside, outside):
        expected = oracle_solve(vectors, accepted, target, labels)
        got = sb.solve(target)
        assert got == expected
        assert got is None or all(type(c) is F and c for c in got.values())
        assert (ech.reduce(target) == {}) == (expected is not None)
