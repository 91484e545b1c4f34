import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from h3orbifold import qseries
from h3orbifold.fock import FockState, enumerate_basis
from h3orbifold.qseries import (FracSeries, _euler_product, burnside_check,
                                burnside_trace, character, character_terms,
                                fock_trace_series,
                                module_character, orbifold_character,
                                pochhammer_inv, twist_weight,
                                w_algebra_free_character)
from h3orbifold.symmetry import GROUPS, Permutation, act


def test_pochhammer_examples():
    p1 = pochhammer_inv(1, 10)
    assert p1.integer_slice(8) == [1, 1, 2, 3, 5, 7, 11, 15]
    p3 = pochhammer_inv(3, 10)
    assert p3.integer_slice(7) == [1, 0, 0, 1, 0, 0, 2]
    cube = p1 * p1 * p1
    assert cube.coefficient(6) == 221
    half = pochhammer_inv(F(1, 2), 3)
    assert half.D == 2
    assert half.coefficient(F(1, 2)) == 1


def test_burnside_traces():
    full = burnside_trace((1, 1, 1), 8)
    assert full.offset == F(-1, 8)
    assert full.integer_slice(5) == [1, 3, 9, 22, 51]
    swap = burnside_trace((2, 1), 8)
    assert swap.integer_slice(7) == [1, 1, 3, 4, 9, 12, 23]
    cyc = burnside_trace((3,), 9)
    assert cyc.integer_slice(7) == [1, 0, 0, 1, 0, 0, 2]


def test_burnside_matches_direct_fock_traces():
    by_type = {}
    for sigma in GROUPS["S3"]:
        direct = fock_trace_series(sigma, 6)
        formula = burnside_trace(sigma.cycle_type(), 6)
        assert direct == formula, sigma
        # depends only on the cycle type
        prev = by_type.setdefault(sigma.cycle_type(), direct)
        assert prev == direct


def _act_trace_series(sigma, max_weight):
    """The oracle as it was written before it counted on index tuples: one
    FockState per monomial, moved by ``act``."""
    coeffs = {}
    for w in range(max_weight + 1):
        count = 0
        for mon in enumerate_basis(3, w):
            moved = act(sigma, FockState(3, "a", {mon: F(1)}))
            if list(moved.terms) == [mon]:
                count += 1
        if count:
            coeffs[w] = F(count)
    return FracSeries(1, 0, coeffs, max_weight).shift(F(-3, 24))


def test_index_tuple_oracle_equals_the_act_oracle():
    for sigma in GROUPS["S3"]:
        for w in range(9):
            direct = fock_trace_series(sigma, w)
            expected = _act_trace_series(sigma, w)
            assert direct == expected, (sigma.images, w)
            assert direct.to_json() == expected.to_json()
            assert all(type(c) is int for c in direct.coeffs.values())


@pytest.mark.parametrize("images", [(1,), (2, 1), (1, 2, 3, 4), (4, 1, 2, 3)])
def test_oracle_rejects_a_permutation_not_of_size_3(images):
    with pytest.raises(ValueError):
        fock_trace_series(Permutation(images), 4)


def _per_permutation_trace_series(sigma, max_weight):
    """The oracle as it was written before the counts were memoised: one
    enumeration of every weight per permutation."""
    images = sigma.images
    coeffs = {}
    for w in range(max_weight + 1):
        count = 0
        for mon in enumerate_basis(3, w):
            moved = sorted((-level, images[field - 1]) for level, field in mon)
            if moved == [(-level, field) for level, field in mon]:
                count += 1
        if count:
            coeffs[w] = count
    return FracSeries(1, 0, coeffs, max_weight).shift(F(-3, 24))


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_memoised_oracle_equals_the_per_permutation_loop(memo):
    if memo == "cold":
        qseries._fixed_counts.cache_clear()
    else:
        fock_trace_series(GROUPS["S3"][0], 8)
    assert len(GROUPS["S3"]) == 6
    for sigma in GROUPS["S3"]:
        for w in range(9):
            direct = fock_trace_series(sigma, w)
            expected = _per_permutation_trace_series(sigma, w)
            assert direct == expected, (sigma.images, w)
            assert direct.to_json() == expected.to_json()
            assert all(type(c) is int for c in direct.coeffs.values())
    # the memo keeps one immutable row of six ints per weight
    for w in range(9):
        counts = qseries._fixed_counts(w)
        assert type(counts) is tuple and len(counts) == 6
        assert all(type(c) is int for c in counts)
        assert qseries._fixed_counts(w) is counts


def test_mutating_an_oracle_series_leaves_the_next_call_unchanged():
    sigma = GROUPS["S3"][1]
    series = fock_trace_series(sigma, 6)
    expected = series.to_json()
    series.coeffs[2] += 1
    assert fock_trace_series(sigma, 6).to_json() == expected


#: one character per lattice and stride set that another lattice shares:
#: strides (1,) on D = 1, 2 and 3, (1, 1, 1) for vac and fock, (2, 1) for
#: the 2-cycle and (1, 2) for theta on D = 2
_ROW_CHARACTERS = [
    lambda order: pochhammer_inv(1, order),
    lambda order: pochhammer_inv(F(1, 2), order),
    lambda order: pochhammer_inv(F(1, 3), order),
    lambda order: orbifold_character("S3", order),
    lambda order: orbifold_character("Z3", order),
    lambda order: module_character("sgn", order),
    lambda order: module_character("vac", order),
    lambda order: module_character("fock", order, (F(1, 2), 0, 1)),
    lambda order: module_character("theta", order, (F(1, 3), 1)),
    lambda order: module_character("sigma", order, (F(2, 3),)),
    lambda order: burnside_trace((2, 1), order),
]


def test_characters_are_the_same_with_a_cold_and_a_warm_row_memo(monkeypatch):
    real = qseries._euler_product
    cold = []
    for character in _ROW_CHARACTERS:
        for order in (0, 7, 30):
            real.cache_clear()
            cold.append(character(order).to_json())
    real.cache_clear()
    made = []

    def recorded(*args):
        row = real(*args)
        made.append((args, row))
        return row

    monkeypatch.setattr(qseries, "_euler_product", recorded)
    for _ in range(2):
        warm = [character(order).to_json()
                for character in _ROW_CHARACTERS for order in (0, 7, 30)]
        assert warm == cold
    # the memo keeps immutable rows of ints, one per (D, order, strides)
    assert made
    for (D, order, strides), row in made:
        assert type(row) is tuple and all(type(c) is int for c in row)
        assert len(row) == order * D + 1
        assert real(D, order, strides) is row
    assert real.cache_info().currsize == len({args for args, _ in made})


@pytest.mark.parametrize("character", [
    lambda: orbifold_character("S3", 12),
    lambda: orbifold_character("Z3", 12),
    lambda: module_character("fock", 12, (F(1, 2), F(1, 3), F(1, 4))),
    lambda: w_algebra_free_character((1, 2, 3, 4, 5, 6, 6), 12),
], ids=["s3", "z3", "fock", "w-free"])
def test_mutating_a_character_leaves_the_next_call_unchanged(character):
    series = character()
    expected = series.to_json()
    k = 2 * series.D   # the coefficient of weight 2
    series.coeffs[k] = series.coeffs.get(k, 0) + 1
    assert character().to_json() == expected


def test_int_and_fraction_coefficients_are_equal():
    ints = FracSeries(2, F(-1, 8), {0: 1, 1: -2, 3: 5}, order=4)
    fracs = FracSeries(2, F(-1, 8), {0: F(1), 1: F(-2), 3: F(5)}, order=4)
    assert all(type(c) is int for c in ints.coeffs.values())
    assert all(type(c) is F for c in fracs.coeffs.values())
    assert ints == fracs and fracs == ints
    assert ints.first_difference(fracs) is None
    assert fracs.first_difference(ints) is None
    assert ints.to_json() == fracs.to_json()
    other = FracSeries(2, F(-1, 8), {0: 1, 1: F(-3, 2), 3: 5}, order=4)
    assert ints != other
    assert ints.first_difference(other) == F(-1, 8) + F(1, 2)
    # a non-int value becomes a Fraction, a zero is dropped
    mixed = FracSeries(1, 0, {0: 0.5, 1: 0, 2: F(0)}, order=4)
    assert mixed.coeffs == {0: F(1, 2)} and type(mixed.coeffs[0]) is F


def test_first_difference_ignores_coefficients_past_either_truncation():
    a = FracSeries(3, F(-1, 8), {0: 1, 6: 2, 7: 4}, order=F(17, 8))
    assert 7 not in a.coeffs  # -1/8 + 7/3 > 17/8
    b = FracSeries(3, F(-1, 8), {0: F(1), 6: F(2), 9: F(7)}, order=5)
    assert a == b  # they differ only at -1/8 + 3, past the truncation of a
    c = FracSeries(3, F(-1, 8), {0: 1, 6: 3}, order=5)
    assert a.first_difference(c) == F(-1, 8) + 2


def test_products_match_series_multiplication():
    # the one-pass kernel against FracSeries.__mul__ of single factors
    for cycle_type in ((1, 1, 1), (2, 1), (3,)):
        product = FracSeries(1, 0, {0: 1}, 20)
        for ell in cycle_type:
            product = product * pochhammer_inv(ell, 20)
        product = product.shift(F(-sum(cycle_type), 24))
        assert burnside_trace(cycle_type, 20).to_json() == product.to_json()
    theta = module_character("theta", 20, weights=(0, 0))
    base = pochhammer_inv(F(1, 2), 20) * pochhammer_inv(1, 20)
    expected = base.shift(twist_weight(2, (1,)) - F(3, 24))
    assert theta.to_json() == expected.to_json()


def test_orbifold_characters():
    s3 = orbifold_character("S3", 8)
    z3 = orbifold_character("Z3", 8)
    assert s3.integer_slice(7) == [1, 1, 3, 6, 13, 24, 49]
    assert z3.integer_slice(7) == [1, 1, 3, 8, 17, 36, 75]
    assert all(a <= b for a, b in zip(s3.integer_slice(9), z3.integer_slice(9)))
    with pytest.raises(ValueError):
        orbifold_character("S4")


def test_twist_weights():
    assert twist_weight(3, (1, 1)) == F(1, 9)
    assert twist_weight(2, (1,)) == F(1, 16)
    assert twist_weight(2, (0,)) == 0
    with pytest.raises(ValueError):
        twist_weight(3, (1,))


def test_module_characters():
    sgn = module_character("sgn", 8)
    assert sgn.integer_slice(4) == [0, 0, 0, 2]
    # cross-checked against the isotypic decomposition:
    # st_w = (vac_w - orb_w - sgn_w) / 2
    st = module_character("st", 8)
    assert st.integer_slice(5) == [0, 1, 3, 7, 17]
    sig = module_character("sigma", 4, weights=(0,))
    assert sig.offset == F(-1, 72)
    assert sig.coefficient(F(-1, 72) + F(1, 3)) == 1
    th = module_character("theta", 4, weights=(0, 0))
    assert th.offset == F(-1, 16)
    fr = module_character("fock", 6, weights=(F(1, 2), 0, 0))
    assert fr.offset == F(1, 8) - F(1, 8) + F(0)  # w^2/2 - 1/8 = 0
    with pytest.raises(ValueError):
        module_character("sigma", 4, weights=(0, 0))


def test_character_terms():
    # the class sums average S3 cycle types, which all sum to 3: their
    # terms share the offset -1/8 and the lattice Z
    for kind in ("S3", "Z3", "orb", "sgn", "st", "vac"):
        divisor, terms = character_terms(kind)
        assert {offset for _, offset, _ in terms} == {F(-1, 8)}
        assert all(sum(steps) == 3 for _, _, steps in terms)
        # the vacuum's share: 1 in the invariants, 0 in sgn and st
        assert sum(mult for mult, _, _ in terms) in (0, divisor)
        # they have no highest weights to take
        for weights in ((1, 2), (0,)):
            with pytest.raises(ValueError) as exc:
                character_terms(kind, weights)
            assert str(exc.value) == f"{kind} takes no highest weights"
    assert character_terms("theta", (1, F(1, 2))) == (
        1, ((1, F(1, 16) - F(1, 8) + F(5, 8), (F(1, 2), 1)),))
    assert character_terms("sigma", (0,)) == (1, ((1, F(-1, 72), (F(1, 3),)),))
    for kind, weights, message in [
            ("bogus", (), "unknown module kind 'bogus'"),
            ("fock", (0, 0), "fock takes three highest weights"),
            ("theta", (), "theta takes two highest weights"),
            ("sigma", (0, 0), "sigma takes one highest weight")]:
        with pytest.raises(ValueError) as exc:
            character_terms(kind, weights)
        assert str(exc.value) == message
    # the group names are orbifold_character's, and the module kinds are
    # not groups
    for group in ("S3", "Z3"):
        with pytest.raises(ValueError, match="unknown module kind"):
            module_character(group, 4)
    with pytest.raises(ValueError, match="unknown group"):
        orbifold_character("orb", 4)


def _per_part_product(D, order, parts):
    """The expansion as it was written before the pentagonal division: one
    pass of the partition recurrence per lattice part p, dividing by
    (1 - q^(p/D))."""
    top = int(F(order) * D)
    coeffs = [1] + [0] * top
    for p in parts:
        for k in range(p, top + 1):
            coeffs[k] += coeffs[k - p]
    return coeffs


@settings(max_examples=60, deadline=None)
@given(D=st.integers(1, 6), strides=st.lists(st.integers(1, 18), min_size=1,
                                            max_size=3),
       order=st.integers(0, 300))
def test_euler_product_equals_the_per_part_recurrence(D, strides, order):
    # the steps k/D; their parts k n on the lattice 1/D, up to the order
    top = order * D
    parts = [k * n for k in strides for n in range(1, top // k + 1)]
    assert _euler_product(D, order, tuple(strides)) == tuple(
        _per_part_product(D, order, parts))


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(st.integers(1, 8) | st.integers(1, 320), min_size=1,
                        max_size=9),
       order=st.integers(0, 300))
def test_free_type_character_equals_the_per_part_recurrence(weights, order):
    # weights above the order included: their factors start past it
    parts = [m for w in weights for m in range(w, order + 1)]
    expected = FracSeries(1, 0, dict(enumerate(_per_part_product(1, order,
                                                                 parts))),
                          order)
    assert w_algebra_free_character(weights, order).to_json() == expected.to_json()


@settings(max_examples=80, deadline=None)
@given(D=st.integers(1, 6),
       offset=st.fractions(-3, 3, max_denominator=72),
       order=st.fractions(-1, 12, max_denominator=8),
       coeffs=st.dictionaries(st.integers(0, 100),
                              st.integers(-10 ** 30, 10 ** 30)
                              | st.fractions(max_denominator=50)))
def test_integer_slice_reads_the_lattice(D, offset, order, coeffs):
    series = FracSeries(D, offset, coeffs, order)
    count = sum(1 for n in range(20) if offset + n <= order)
    expected = [series.coefficient(offset + n) for n in range(count)]
    assert series.integer_slice(count) == expected
    assert [type(c) for c in series.integer_slice(count)] == list(map(type, expected))
    # a slice past the truncation raises as the coefficient past it does
    with pytest.raises(ValueError) as past:
        series.coefficient(offset + count)
    with pytest.raises(ValueError) as sliced:
        series.integer_slice(count + 1)
    assert str(sliced.value) == str(past.value)


def test_isotypic_decomposition():
    lhs = module_character("vac", 12)
    rhs = (module_character("orb", 12) + module_character("sgn", 12)
           + module_character("st", 12).scale(2))
    assert lhs == rhs


def test_free_type_character_mismatch_exponents():
    wf = w_algebra_free_character([1, 2, 3, 4, 5, 6, 6], 12)
    orb = orbifold_character("S3", 12).shift(F(1, 8))
    assert orb.first_difference(wf) == 9
    wf9 = wf - wf.shift(9)
    assert orb.first_difference(wf9) == 10


def test_cyclic_free_type_character_mismatch_exponent():
    # the Z3 analogue of criterion 5: the free character of the cyclic
    # generating type first exceeds the Z3 orbifold's at q^6, by the one
    # weight-6 relation among those generators
    wf = w_algebra_free_character([1, 2, 3, 3, 3, 4, 5, 5, 5], 12)
    orb = orbifold_character("Z3", 12).shift(F(1, 8))
    assert orb.first_difference(wf) == 6
    assert (wf.coefficient(6), orb.coefficient(6)) == (76, 75)


@pytest.mark.parametrize("weights", [(1, 2, 3, 4, 5, 6, 6),
                                     (1, 2, 3, 3, 3, 4, 5, 5, 5)],
                         ids=["s3", "z3"])
def test_a_second_free_type_character_reads_its_row_from_the_memo(weights):
    _euler_product.cache_clear()
    first = w_algebra_free_character(weights, 200)
    assert _euler_product.cache_info().misses == 1
    second = w_algebra_free_character(weights, 200)
    assert _euler_product.cache_info()[:2] == (1, 1)   # (hits, misses)
    assert second is not first and second.to_json() == first.to_json()


@pytest.mark.parametrize("weights", [[0], [-1], [1, 0], [F(1, 2)], [2, F(-3)]],
                         ids=str)
def test_free_type_character_rejects_non_positive_integer_weights(weights):
    with pytest.raises(ValueError):
        w_algebra_free_character(weights, 3)


def test_free_type_character_accepts_integral_fractions():
    assert (w_algebra_free_character([F(2), F(1)], 6).to_json()
            == w_algebra_free_character([1, 2], 6).to_json())


def test_series_arithmetic():
    a = FracSeries(2, F(-1, 8), {0: F(1), 1: F(2)}, order=4)
    b = FracSeries(3, F(-1, 8), {0: F(1)}, order=4)
    s = a + b
    assert s.coefficient(F(-1, 8)) == 2
    assert s.D == 6
    prod = a * a
    assert prod.offset == F(-1, 4)
    assert prod.coefficient(F(-1, 4) + F(1, 2)) == 4
    with pytest.raises(ValueError):
        a + FracSeries(2, F(1, 7), {0: F(1)}, order=4)  # misaligned offsets
    with pytest.raises(ValueError):
        a.coefficient(100)  # beyond truncation


def test_series_json_shape():
    s = orbifold_character("S3", 3)
    data = s.to_json()
    assert set(data) == {"D", "offset", "order", "coeffs"}
    assert data["offset"] == "-1/8"


@pytest.mark.parametrize("which, weights, expected", [
    ("s3", (), lambda order: orbifold_character("S3", order)),
    ("z3", (), lambda order: orbifold_character("Z3", order)),
    ("sgn", (), lambda order: module_character("sgn", order)),
    ("vac", (), lambda order: burnside_trace((1, 1, 1), order)),
    ("fock", (), lambda order: module_character("fock", order, (0, 0, 0))),
    ("theta", (), lambda order: module_character("theta", order, (0, 0))),
    ("sigma", (), lambda order: module_character("sigma", order, (0,))),
    ("sigma", (F(1, 3),),
     lambda order: module_character("sigma", order, (F(1, 3),))),
    ("w-free", (1, 2, 3),
     lambda order: w_algebra_free_character((1, 2, 3), order)),
])
def test_character_of_each_char_name(which, weights, expected):
    series = character(which, 10, weights)
    assert series.to_json() == expected(10).to_json()
    assert burnside_check(which, series, 10, weights)


def _series_burnside_check(which, series, order, weights=()):
    """``burnside_check`` as it was written on series: fresh ``FracSeries``
    traces compared with ``burnside_trace``, then shifted, scaled and summed
    into the class average."""
    top = min(order, 6)
    ok = True
    traces: dict = {}
    for sigma in GROUPS["S3"]:
        direct = fock_trace_series(sigma, top)
        if direct != burnside_trace(sigma.cycle_type(), top):
            ok = False
        traces.setdefault(sigma.cycle_type(), []).append(direct)
    if which == "w-free":
        return ok
    divisor, terms = qseries._named_terms(which, weights)
    if all(steps in traces for _, _, steps in terms):
        parts = [direct.scale(F(mult, divisor * len(traces[steps])))
                 .shift(offset + F(sum(steps), 24))
                 for mult, offset, steps in terms
                 for direct in traces[steps]]
        if series != sum(parts[1:], parts[0]):
            ok = False
    return ok


def _benchmark_candidates():
    """(which, weights) of every ``char --which``: the class sums, the
    benchmark's highest-weight candidates and both paper types."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cases = [(which, "") for which in ("s3", "z3", "sgn", "st", "vac")]
    for which, candidates in (("fock", workloads.FOCK_WEIGHTS),
                              ("theta", workloads.THETA_WEIGHTS),
                              ("sigma", workloads.SIGMA_WEIGHTS),
                              ("w-free", workloads.W_FREE_TYPES)):
        cases += [(which, weights) for weights in candidates]
    return [(which, tuple(F(w) for w in weights.split(",")) if weights else ())
            for which, weights in cases]


@pytest.mark.parametrize("which, weights", _benchmark_candidates(),
                         ids=lambda v: ",".join(map(str, v))
                         if isinstance(v, tuple) else v)
def test_row_check_gives_the_verdicts_of_the_series_check(which, weights):
    averaged = which in ("s3", "z3", "sgn", "st", "vac", "fock")
    for order in (0, 1, 5, 6, 7, 12, 200):
        series = character(which, order, weights)
        assert burnside_check(which, series, order, weights)
        assert _series_burnside_check(which, series, order, weights)
        top = order * series.D
        for k in sorted({0, 2 * series.D, 6 * series.D, 6 * series.D + 1,
                         7 * series.D, top}):
            if k > top:
                continue
            for delta in (1, -1):
                perturbed = character(which, order, weights)
                perturbed.coeffs[k] = perturbed.coeffs.get(k, 0) + delta
                verdict = burnside_check(which, perturbed, order, weights)
                assert verdict == _series_burnside_check(which, perturbed,
                                                         order, weights)
                # the class average reaches weight 6 on the lattice 1/1
                assert verdict == (not averaged or k > 6), (order, k, delta)
