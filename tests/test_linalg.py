from fractions import Fraction as F
from itertools import permutations

from h3orbifold.linalg import Echelon, SolverBasis, det_bareiss


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
    assert ech.rows[1] == {1: F(1), 0: F(1, 2)}
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
