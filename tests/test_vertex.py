import random
from fractions import Fraction as F
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from h3orbifold import vertex
from h3orbifold.fock import (_BETA_PAIR, ALPHA, BETA, FockState, canonical,
                             enumerate_basis, monomial_weight)
from h3orbifold.scalars import ZETA, Scalar
from h3orbifold.symmetry import gen
from h3orbifold.vertex import (_gen_binom, _monomial_product, check_borcherds,
                               check_skew_symmetry, conformal_vector,
                               is_primary, nth_product, translate,
                               translate_power, virasoro_mode)


def mono(modes, coeff=F(1), basis=ALPHA, rank=3):
    return FockState.monomial(rank, modes, coeff, basis)


def rand_state(rng, basis=ALPHA, maxw=3):
    out = FockState(3, basis)
    for _ in range(rng.randint(1, 3)):
        w = rng.randint(0, maxw)
        out._add_term(rng.choice(enumerate_basis(3, w)),
                      F(rng.randint(-6, 6), rng.randint(1, 4)))
    return out


def test_vacuum_axiom():
    vac = FockState.vacuum(3)
    v = mono([(2, 1), (1, 3)])
    assert nth_product(vac, -1, v) == v
    for n in (-3, -2, 0, 1):
        if n != -1:
            assert nth_product(vac, n, v).is_zero()


def test_heisenberg_bracket():
    a1 = mono([(1, 1)])
    a2 = mono([(1, 2)])
    assert nth_product(a1, 1, a1) == FockState.vacuum(3)
    assert nth_product(a2, 1, a1).is_zero()
    # mode of the derivative field: (a1(-2))_3 = -3 a1(2), so the bracket
    # value 2 appears scaled by -3
    assert (nth_product(mono([(2, 1)]), 3, mono([(2, 1)]))
            == FockState.vacuum(3).scale(-6))


def test_translate_is_minus_two_mode():
    rng = random.Random(2)
    vac = FockState.vacuum(3)
    for _ in range(30):
        v = rand_state(rng, rng.choice([ALPHA, BETA]))
        vb = FockState.vacuum(3, v.basis)
        assert translate(v) == nth_product(v, -2, vb)
    assert translate(vac).is_zero()
    assert translate(mono([(1, 1)])) == mono([(2, 1)])


def test_translate_on_generator_family():
    # T omega2_0(a,b) = (a+1) omega2_0(a+1,b) + (b+1) omega2_0(a,b+1)
    for (a, b) in [(0, 0), (0, 2), (1, 3), (2, 2)]:
        lhs = translate(gen("omega2_0", a, b))
        rhs = (gen("omega2_0", a + 1, b).scale(a + 1)
               + gen("omega2_0", a, b + 1).scale(b + 1))
        assert lhs == rhs


def test_product_weight_homogeneity():
    rng = random.Random(4)
    for _ in range(40):
        basis = rng.choice([ALPHA, BETA])
        wu = rng.randint(1, 3)
        wv = rng.randint(0, 3)
        u = FockState(3, basis, {rng.choice(enumerate_basis(3, wu)): F(1)})
        v = FockState(3, basis, {rng.choice(enumerate_basis(3, wv)): F(1)})
        n = rng.randint(-4, 3)
        p = nth_product(u, n, v)
        if not p.is_zero():
            assert p.weight() == wu + wv - n - 1
        assert nth_product(u, wu + wv, v).is_zero()  # beyond the top mode


def test_virasoro_grading_and_translation():
    rng = random.Random(6)
    for _ in range(20):
        w = rng.randint(0, 4)
        v = FockState(3, ALPHA, {rng.choice(enumerate_basis(3, w)): F(1)})
        assert virasoro_mode(0, v) == v.scale(w)
        assert virasoro_mode(-1, v) == translate(v)


def test_central_charge():
    om = conformal_vector(3)
    assert nth_product(om, 3, om) == FockState.vacuum(3).scale(F(3, 2))
    vac = FockState.vacuum(3)
    for k in (1, 2, 3):
        comm = (virasoro_mode(k, virasoro_mode(-k, vac))
                - virasoro_mode(-k, virasoro_mode(k, vac)))
        assert comm == vac.scale(F(3 * k * (k * k - 1), 12))
    # beta-basis conformal vector generates the same structure
    omb = conformal_vector(3, BETA)
    assert nth_product(omb, 3, omb) == FockState.vacuum(3, BETA).scale(F(3, 2))


def test_is_primary_examples():
    assert is_primary(gen("omega1_0", 0))
    assert is_primary(gen("omega1", 0))
    assert not is_primary(conformal_vector(3))
    with pytest.raises(ValueError):
        is_primary(mono([(1, 1)]) + mono([(2, 1)]))


def test_single_cube_is_primary():
    # the pairing makes each pure cube primary
    assert is_primary(gen("omega222_0", 0, 0, 0))
    assert is_primary(gen("omega333_0", 0, 0, 0))


def test_skew_symmetry_random():
    rng = random.Random(7)
    for _ in range(60):
        basis = rng.choice([ALPHA, BETA])
        u, v = rand_state(rng, basis), rand_state(rng, basis)
        n = rng.randint(-2, 2)
        assert check_skew_symmetry(u, v, n).is_zero()


def test_skew_symmetry_vacuum():
    vac = FockState.vacuum(3)
    v = mono([(1, 1)])
    for n in (-2, -1, 0, 1):
        assert check_skew_symmetry(vac, v, n).is_zero()


def test_skew_symmetry_holds_at_every_mode_from_minus_eight():
    # the lower n, the more terms v_{n+j} u are nonzero: the sum must run to
    # n + j = wt(u) + wt(v) - 1 whatever n is; Fraction and Q(z) states
    rng = random.Random(8)
    qz = 0
    for trial in range(16):
        basis = (ALPHA, BETA)[trial % 2]
        if trial < 8:
            u, v = rand_state(rng, basis, 2), rand_state(rng, basis, 2)
        else:
            u, v = _residual_states(rng, basis), _residual_states(rng, basis)
            qz += any(type(c) is Scalar and c.b for s in (u, v)
                      for c in s.terms.values())
        for n in range(-8, 4):
            assert check_skew_symmetry(u, v, n).is_zero(), (u, v, n)
    assert qz
    a1 = mono([(1, 1)])
    for n in range(-8, 4):
        assert check_skew_symmetry(a1, a1, n).is_zero(), n


def _homogeneous_state(rng, basis, weight):
    """One or two monomials of the weight with random coefficients."""
    monomials = enumerate_basis(3, weight)
    out = FockState(3, basis)
    for mon in rng.sample(monomials, min(2, len(monomials))):
        out._add_term(mon, F(rng.choice([1, -2, 3]), rng.choice([1, 2])))
    return out


@pytest.mark.parametrize("basis", [ALPHA, BETA])
def test_skew_symmetry_forms_products_up_to_the_top_mode_only(monkeypatch,
                                                              basis):
    # for homogeneous u and v, v_{n+j} u is 0 by weight once
    # n + j >= wt(u) + wt(v), so no such product is formed; the one at
    # wt(u) + wt(v) - 1, a multiple of the vacuum, is
    modes = []
    kernel = vertex._monomial_product

    def recorded(basis, u, n, v):
        modes.append(n)
        return kernel(basis, u, n, v)

    monkeypatch.setattr(vertex, "_monomial_product", recorded)
    rng = random.Random(10)
    for _ in range(12):
        wu, wv = rng.randint(0, 3), rng.randint(0, 3)
        u = _homogeneous_state(rng, basis, wu)
        v = _homogeneous_state(rng, basis, wv)
        for n in range(-8, wu + wv):
            modes.clear()
            check_skew_symmetry(u, v, n)
            assert max(modes) == wu + wv - 1, (u, v, n)


def test_borcherds_random():
    rng = random.Random(8)
    for _ in range(30):
        basis = rng.choice([ALPHA, BETA])
        u, v, w = (rand_state(rng, basis, maxw=2) for _ in range(3))
        p, q, r = (rng.randint(-2, 2) for _ in range(3))
        assert check_borcherds(u, v, w, p, q, r).is_zero()


def test_borcherds_commutator_case():
    # p = 0 reduces to the commutator formula
    u = gen("omega2_0", 0, 0)
    v = gen("omega3_0", 0, 0, 0)
    w = gen("omega1_0", 0)
    assert check_borcherds(u, v, w, 0, -1, 1).is_zero()


def test_memoization_consistency():
    from h3orbifold.vertex import clear_product_cache
    u = gen("omega2_0", 0, 2)
    v = gen("omega3_0", 0, 1, 2)
    first = nth_product(u, -1, v)
    again = nth_product(u, -1, v)
    assert first == again
    clear_product_cache()
    assert nth_product(u, -1, v) == first


#: SHA-256 of the text of u_n v, one line per product, over every ordered
#: pair of generators with wt(u) + wt(v) <= 6 and n = -3..3 (generators in
#: the named basis, optionally scaled by 2 - z), recorded before the product
#: memo held integer coefficients
PRODUCT_GRID_SHA256 = {
    ("S3", "a", False): "53a0db52e93a86aac36966bd80d8f58e79ad9639bd20d1bb153d65fb8f946b04",
    ("S3", "b", False): "bdfdab12e069e74584595669726bb14851259bce794cc351a34f0f6eb77845cd",
    ("Z3", "a", False): "fbcd5b494ce0bb41e9fd24585fc9feea5abdfb7189cc47cb37f2a41245ed85c3",
    ("Z3", "b", False): "bc3fedabe6b4536aaeb487f4d9015664d03a990f287d11e95af84e6928539623",
    ("Z3", "b", True): "2237b8e62841e4d9403c37e1c30551e853d8a599070ee7fcc75ce4ce80d36739",
}


@pytest.mark.parametrize("key", list(PRODUCT_GRID_SHA256),
                         ids=lambda key: f"{key[0]}-{key[1]}{'-qz' if key[2] else ''}")
def test_generator_products_are_pinned(key):
    import hashlib
    from h3orbifold.fock import change_basis
    from h3orbifold.scalars import Scalar
    from h3orbifold.structure import S3_GENERATOR_IDS, Z3_GENERATOR_IDS
    from h3orbifold.symmetry import build_generator
    group, basis, scaled = key
    ids = S3_GENERATOR_IDS if group == "S3" else Z3_GENERATOR_IDS
    gens = [change_basis(build_generator(g), basis) for g in ids]
    if scaled:
        gens = [g.scale(Scalar(2, -1)) for g in gens]
    lines = [str(nth_product(u, n, v))
             for u in gens for v in gens
             if u.max_weight() + v.max_weight() <= 6
             for n in range(-3, 4)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PRODUCT_GRID_SHA256[key]


def _pairs(flat):
    """The (monomial, coefficient) pairs of a flat memo value, in order."""
    assert type(flat) is tuple and len(flat) % 2 == 0, flat
    return list(zip(flat[::2], flat[1::2]))


def _memo_entries():
    """The product memo with its rows flattened: {(basis, u, n, v): value}."""
    return {(*key, v): flat for key, row in vertex._PRODUCT_CACHE.items()
            for v, flat in row.items()}


def _as_dict(flat):
    """A flat memo value as a dict, checking that no monomial repeats."""
    pairs = _pairs(flat)
    out = dict(pairs)
    assert len(out) == len(pairs), flat
    return out


def _recursive_product(basis, u, n, v, memo):
    """Oracle for ``_monomial_product``: the free-field recursion that peels
    the first mode x_i(-m) off u = x_i(-m) u',

        u_n v = sum_{k<0} C(-k-1, m-1) x_i(k) (u'_{n-k-m} v)
              + sum_{k>=0} C(-k-1, m-1) u'_{n-k-m} (x_i(k) v),

    with 1_n v = delta_{n,-1} v, memoised in ``memo``."""
    key = (basis, u, n, v)
    if key in memo:
        return memo[key]
    if not u:
        memo[key] = {v: 1} if n == -1 else {}
        return memo[key]
    (m, field), rest = u[0], u[1:]
    rest_wt = monomial_weight(rest)
    v_wt = monomial_weight(v)
    result = {}

    def add(mon, c):
        val = result.get(mon, 0) + c
        if val:
            result[mon] = val
        else:
            result.pop(mon, None)

    # creation side: the inner product vanishes once n - k - m exceeds
    # wt(rest) + wt(v) - 1
    for k in range(-1, n - m - (rest_wt + v_wt - 1) - 1, -1):
        c = _gen_binom(-k - 1, m - 1)
        for mon, cf in _recursive_product(basis, rest, n - k - m, v, memo).items():
            add(canonical(mon + ((-k, field),)), c * cf)
    # annihilation side: x_field(k) contracts each copy of its partner mode
    partner = _BETA_PAIR[field] if basis == BETA else field
    for k in range(1, v_wt + 1):
        mult = v.count((k, partner))
        if not mult:
            continue
        pos = v.index((k, partner))
        c = _gen_binom(-k - 1, m - 1) * mult * k
        inner = _recursive_product(basis, rest, n - k - m, v[:pos] + v[pos + 1:], memo)
        for mon, cf in inner.items():
            add(mon, c * cf)
    memo[key] = result
    return result


def _rand_monomial(rng, max_weight):
    """A random monomial of weight <= max_weight over a few low modes, so
    that repeated modes are common."""
    modes = []
    while True:
        mode = (rng.randint(1, 3), rng.randint(1, 3))
        if monomial_weight(modes) + mode[0] > max_weight or rng.random() < 0.2:
            return canonical(modes)
        modes.append(mode)


def test_wick_kernel_equals_the_recursion():
    rng = random.Random(11)
    memo = {}
    repeated = beyond = 0
    for _ in range(1500):
        basis = rng.choice([ALPHA, BETA])
        u, v = _rand_monomial(rng, 6), _rand_monomial(rng, 8)
        n = rng.randint(-6, 8)
        got = _as_dict(_monomial_product(basis, u, n, v))
        assert got == _recursive_product(basis, u, n, v, memo), (basis, u, n, v)
        assert all(type(c) is int and c for c in got.values())
        repeated += len(set(u)) < len(u) and len(set(v)) < len(v)
        if n >= monomial_weight(u) + monomial_weight(v):
            beyond += 1
            assert got == {}
    assert repeated > 50 and beyond > 50


# -- the raise table against the per-spread kernel it replaced ---------------


def _old_canonical(modes):
    """``fock.canonical`` with the lambda sort key it had."""
    return tuple(sorted(modes, key=lambda lf: (-lf[0], lf[1])))


def _old_spread(free, excess):
    """``_spread``, unchanged, so the oracles below stand alone."""
    parts = [((), 1, excess)]
    last = len(free) - 1
    for k, (m, f) in enumerate(free):
        parts = [(modes + ((m + e, f),), c * comb(m + e - 1, m - 1), left - e)
                 for modes, c, left in parts
                 for e in ((left,) if k == last else range(left + 1))]
    return [(modes, c) for modes, c, _ in parts]


def _old_monomial_product(basis, u, n, v):
    """Oracle for ``_monomial_product``: the kernel before the raise table,
    one sort per spread of the excess, without the memo."""
    result = {}
    if n < monomial_weight(u) + monomial_weight(v):
        distinct = dict.fromkeys(v)
        options = []
        for m, f in u:
            partner = _BETA_PAIR[f] if basis == BETA else f
            options.append([None] + [((l, g), l * _gen_binom(-l - 1, m - 1), m + l)
                                     for l, g in distinct if g == partner])
        for sigma in product(*options):
            coeff = 1
            excess = -n - 1
            free = []
            rest = list(v)
            for mode_u, pick in zip(u, sigma):
                if pick is None:
                    free.append(mode_u)
                    continue
                mode, c, levels = pick
                copies = rest.count(mode)
                if not copies:
                    break
                rest.remove(mode)
                coeff *= copies * c
                excess += levels
            else:
                if excess < 0 or (excess and not free):
                    continue
                rest = tuple(rest)
                for added, c in _old_spread(free, excess):
                    mon = _old_canonical(rest + added)
                    result[mon] = result.get(mon, 0) + coeff * c
        result = {mon: c for mon, c in result.items() if c}
    return result


def _old_divided_power(x, k):
    """Oracle for ``_divided_power``: one sort per spread."""
    out = {}
    for mon, c in x.items():
        if mon or not k:
            for added, f in _old_spread(list(mon), k):
                key = _old_canonical(added)
                val = out.get(key, 0) + c * f
                if val:
                    out[key] = val
                else:
                    del out[key]
    return out


def _kernel_cases(seed, count):
    """Seeded (basis, u, n, v) over low modes, so that repeated modes are
    common, with n from -6 to wt(u) + wt(v) + 1."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        u, v = _rand_monomial(rng, 6), _rand_monomial(rng, 7)
        top = monomial_weight(u) + monomial_weight(v) + 1
        cases.append((rng.choice([ALPHA, BETA]), u, rng.randint(-6, top), v))
    return cases


def test_raise_table_kernel_equals_the_per_spread_kernel():
    vertex.clear_product_cache()
    cases = _kernel_cases(31, 1500)
    for basis in (ALPHA, BETA):
        assert sum(case[0] == basis for case in cases) > 600
    repeated_u = repeated_v = nonzero = 0
    for case in cases:
        got = _monomial_product(*case)
        # equal terms in the same order
        assert _pairs(got) == list(_old_monomial_product(*case).items()), case
        _, u, _, v = case
        repeated_u += len(set(u)) < len(u)
        repeated_v += len(set(v)) < len(v)
        nonzero += bool(got)
    assert repeated_u > 150 and repeated_v > 150 and nonzero > 500


def test_raise_table_divided_powers_equal_the_per_spread_ones():
    rng = random.Random(32)
    for trial in range(150):
        x = {_rand_monomial(rng, 6): rng.choice([-3, -2, -1, 1, 2, 5])
             for _ in range(rng.randint(1, 5))}
        if trial % 10 == 0:
            x[()] = 7
        for k in range(7):
            assert vertex._divided_power(x, k) == _old_divided_power(x, k), (x, k)


def test_clearing_the_cache_empties_both_tables():
    cases = _kernel_cases(33, 300)
    vertex.clear_product_cache()
    first = [_pairs(_monomial_product(*case)) for case in cases]
    assert vertex._PRODUCT_CACHE and vertex._RAISE_CACHE
    vertex.clear_product_cache()
    assert not vertex._PRODUCT_CACHE and not vertex._RAISE_CACHE
    assert [_pairs(_monomial_product(*case)) for case in cases] == first


def test_memos_hold_one_object_per_monomial_and_mode_until_cleared():
    vertex.clear_product_cache()
    for case in _kernel_cases(34, 300):
        _monomial_product(*case)
    stored = [mon for terms in _memo_entries().values() for mon in terms[::2]]
    stored += [mon for entry in vertex._RAISE_CACHE.values() for mon in entry[::2]]
    monomials, modes = {}, {}
    for mon in stored:
        assert monomials.setdefault(mon, mon) is mon
        for mode in mon:
            assert modes.setdefault(mode, mode) is mode
    # equal monomials and modes do recur, so the sharing is exercised
    assert len(stored) > len(monomials)
    assert sum(map(len, stored)) > len(modes)
    # the table keeps no second copy as a key
    assert vertex._SHARED
    assert all(key is value for key, value in vertex._SHARED.items())
    vertex.clear_product_cache()
    assert not vertex._SHARED


def test_memo_values_are_flat_tuples_of_interned_monomials_and_nonzero_ints():
    vertex.clear_product_cache()
    cases = _kernel_cases(35, 600)
    for case in cases:
        _monomial_product(*case)
    memo = _memo_entries()
    for table in (memo, vertex._RAISE_CACHE):
        assert table
        for key, flat in table.items():
            assert type(flat) is tuple and len(flat) % 2 == 0, key
            for mon, c in zip(flat[::2], flat[1::2]):
                assert type(mon) is tuple and vertex._SHARED.get(mon) is mon, key
                assert all(vertex._SHARED.get(mode) is mode for mode in mon), key
                assert type(c) is int and c, key
    # a zero product, in the oracle's terms, is stored as the empty tuple
    zero = [case for case in cases if not _old_monomial_product(*case)]
    assert len(zero) > 100
    assert all(memo[case] == () for case in zero)


def test_memo_rows_hold_exactly_the_products_formed(monkeypatch):
    # every product goes through _monomial_product; the rows, flattened,
    # hold exactly the (basis, u, n, v) it was called with and the very
    # objects it returned, and no row is empty
    calls = {}
    kernel = vertex._monomial_product

    def recorded(basis, u, n, v):
        flat = kernel(basis, u, n, v)
        assert calls.setdefault((basis, u, n, v), flat) is flat
        return flat

    monkeypatch.setattr(vertex, "_monomial_product", recorded)
    vertex.clear_product_cache()
    rng = random.Random(16)
    for trial in range(30):
        basis = (ALPHA, BETA)[trial % 2]
        u, v, w = (_residual_states(rng, basis) for _ in range(3))
        check_skew_symmetry(u, v, rng.randint(-2, 2))
        check_borcherds(u, v, w, *(rng.randint(-2, 2) for _ in range(3)))
    memo = _memo_entries()
    assert set(memo) == set(calls)
    assert all(memo[key] is flat for key, flat in calls.items())
    assert all(vertex._PRODUCT_CACHE.values())
    # rows are shared: fewer rows than products, in both bases
    assert len(vertex._PRODUCT_CACHE) < len(memo)
    assert {key[0] for key in vertex._PRODUCT_CACHE} == {ALPHA, BETA}


def test_wick_kernel_contracts_repeated_modes_both_ways():
    # a(-1)^2 |0> is :a(z)a(z):, whose 3-mode contracts both copies of
    # a(-1) in v, in either order; in the b basis field 2 pairs with 3 only
    square = ((1, 1), (1, 1))
    assert _as_dict(_monomial_product("a", square, 3, square)) == {(): 2}
    b2, b3 = ((1, 2), (1, 2)), ((1, 3), (1, 3))
    assert _as_dict(_monomial_product("b", b2, 3, b3)) == {(): 2}
    assert _as_dict(_monomial_product("b", b2, 3, b2)) == {}


def test_single_modes_are_creation_and_annihilation():
    # (x_f(-m)|0>)_{-1} v = x_f(-m) v, and (x_f(-1)|0>)_l v = x_f(l) v
    def kernel(*case):
        return _as_dict(_monomial_product(*case))
    assert kernel("a", ((1, 1),), -1, ()) == {((1, 1),): 1}
    assert kernel("a", ((2, 1),), -1, ((1, 1),)) == {((2, 1), (1, 1)): 1}
    assert kernel("a", ((1, 1),), 1, ((1, 1),)) == {(): 1}
    assert kernel("a", ((1, 1),), 2, ((2, 1),)) == {(): 2}
    assert kernel("a", ((1, 2),), 1, ((1, 1),)) == {}
    rng = random.Random(12)
    for _ in range(200):
        basis = rng.choice([ALPHA, BETA])
        v = _rand_monomial(rng, 6)
        state = FockState(3, basis, {v: F(1)})
        field, level = rng.randint(1, 3), rng.randint(1, 3)
        assert (kernel(basis, ((level, field),), -1, v)
                == state.apply_creation(field, level).terms)
        assert (kernel(basis, ((1, field),), level, v)
                == state.apply_annihilation(field, level).terms)


# -- the scaled integer path against the Fraction arithmetic it replaced ------


def _fraction_product(u, n, v):
    """Oracle for ``nth_product``: the per-term ``Fraction`` loop it
    replaced, reading the kernel through the module so a patch applies."""
    out = FockState(u.rank, u.basis)
    for mu, cu in u.terms.items():
        for mv, cv in v.terms.items():
            coeff = cu * cv
            for mon, cf in _pairs(vertex._monomial_product(u.basis, mu, n, mv)):
                out._add_term(mon, coeff * cf)
    return out


def _derivation(v):
    """Oracle for ``translate``: x_i(-m) -> m x_i(-m-1), mode by mode."""
    out = FockState(v.rank, v.basis)
    for mon, c in v.terms.items():
        for pos, (lv, fld) in enumerate(mon):
            bumped = mon[:pos] + ((lv + 1, fld),) + mon[pos + 1:]
            out._add_term(canonical(bumped), c * lv)
    return out


def _iterated_translate(v, k):
    """Oracle for ``translate_power``: k derivations, then 1/k!."""
    for _ in range(k):
        v = _derivation(v)
    return v.scale(F(1, factorial(k)))


def _reference_skew(u, v, n):
    """Oracle for ``check_skew_symmetry``: whole states summed per term, up
    to the last j with n + j < wt(u) + wt(v), past which v_{n+j} u is 0."""
    top = u.max_weight() + v.max_weight()
    total = FockState(u.rank, u.basis)
    for j in range(max(0, top - n)):
        term = _fraction_product(v, n + j, u)
        if term.is_zero():
            continue
        term = _iterated_translate(term, j)
        sign = F(-1 if (n + j + 1) % 2 else 1)
        total = total + term.scale(sign)
    return _fraction_product(u, n, v) - total


def _reference_borcherds(u, v, w, p, q, r):
    """Oracle for ``check_borcherds``: whole states summed per term."""
    wt_u, wt_v, wt_w = u.max_weight(), v.max_weight(), w.max_weight()
    out = FockState(u.rank, u.basis)
    i = 0
    while r + i <= wt_u + wt_v - 1:
        c = _gen_binom(p, i)
        if c == 0 and p >= 0 and i > p:
            break
        if c != 0:
            uv = _fraction_product(u, r + i, v)
            out = out + _fraction_product(uv, p + q - i, w).scale(F(c))
        i += 1
    i = 0
    while q + i <= wt_v + wt_w - 1 or p + i <= wt_u + wt_w - 1:
        c = _gen_binom(r, i)
        if c == 0 and r >= 0 and i > r:
            break
        if c != 0:
            s = F(-c if i % 2 else c)
            vw = _fraction_product(v, q + i, w)
            out = out - _fraction_product(u, p + r - i, vw).scale(s)
            uw = _fraction_product(u, p + i, w)
            out = out + _fraction_product(v, q + r - i, uw).scale(
                -s if r % 2 else s)
        i += 1
    return out


def _same_coefficients(got, want):
    """Equal states whose coefficients have equal types: ``Fraction`` where
    rational, ``Scalar`` only where the z-part is nonzero."""
    assert got == want
    for c in got.terms.values():
        assert type(c) is F or (type(c) is Scalar and c.b != 0), c
    assert ({m: type(c) for m, c in got.terms.items()}
            == {m: type(c) for m, c in want.terms.items()})


#: few low modes, so that products of random states collide and cancel
_MONOMIALS = [m for w in range(4) for m in enumerate_basis(3, w)]
_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_COEFFS = (_RATIONALS.filter(bool)
           | st.builds(Scalar, _RATIONALS, _RATIONALS).filter(bool))


@st.composite
def _state_pairs(draw):
    basis = draw(st.sampled_from([ALPHA, BETA]))
    pool = draw(st.lists(st.sampled_from(_MONOMIALS), min_size=1, max_size=4))

    def state():
        out = FockState(3, basis)
        for mon in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
            out._add_term(mon, draw(_COEFFS))
        return out
    return state(), draw(st.integers(-3, 3)), state()


@settings(max_examples=200, deadline=None)
@given(_state_pairs())
def test_nth_product_equals_the_fraction_loop(case):
    u, n, v = case
    _same_coefficients(nth_product(u, n, v), _fraction_product(u, n, v))


def test_nth_product_cancels_across_rational_and_z_parts():
    a1, a2 = mono([(1, 1)]), mono([(1, 2)])
    # rational terms cancel: (a1 + a2)_1 (a1 - a2) = 1 - 1
    assert nth_product(a1 + a2, 1, a1 - a2).is_zero()
    # z-parts cancel: (z a1 + a2)_1 (a1 - z a2) = z - z
    assert nth_product(a1.scale(ZETA) + a2, 1, a1 - a2.scale(ZETA)).is_zero()
    # z^2 + z = -1 leaves a rational Fraction coefficient
    got = nth_product(a1.scale(ZETA) + a2, 1, (a1 + a2).scale(ZETA))
    assert got.terms == {(): F(-1)} and type(got.terms[()]) is F
    # z * z = -1 - z stays in Q(z)
    got = nth_product(a1.scale(ZETA), 1, a1.scale(ZETA))
    assert got.terms == {(): Scalar(-1, -1)}


def _wrong_kernel(true_kernel):
    """A kernel that adds a spurious term, so axiom residuals are nonzero."""
    def kernel(basis, u, n, v):
        out = dict(_pairs(true_kernel(basis, u, n, v)))
        extra = canonical(u + v)
        val = out.get(extra, 0) + 2 + n * n
        if val:
            out[extra] = val
        else:
            del out[extra]
        return tuple(x for term in out.items() for x in term)
    return kernel


def _residual_states(rng, basis):
    """Random states with coefficients over denominators 3 and 5, rational
    or in Q(z)."""
    out = FockState(3, basis)
    for _ in range(rng.randint(1, 3)):
        mon = rng.choice(enumerate_basis(3, rng.randint(0, 2)))
        a = F(rng.choice([1, 2, -1, -2]), rng.choice([1, 3, 5]))
        b = rng.choice([0, 0, F(2, 5), F(-1, 3)])
        out._add_term(mon, Scalar(a, b))
    return out


def test_axiom_residuals_divide_once(monkeypatch):
    monkeypatch.setattr(vertex, "_monomial_product",
                        _wrong_kernel(vertex._monomial_product))
    rng = random.Random(13)
    nonzero = qz = 0
    for _ in range(40):
        basis = rng.choice([ALPHA, BETA])
        u, v, w = (_residual_states(rng, basis) for _ in range(3))
        n = rng.randint(-2, 2)
        got = check_skew_symmetry(u, v, n)
        _same_coefficients(got, _reference_skew(u, v, n))
        p, q, r = (rng.randint(-2, 2) for _ in range(3))
        got_b = check_borcherds(u, v, w, p, q, r)
        _same_coefficients(got_b, _reference_borcherds(u, v, w, p, q, r))
        nonzero += not got.is_zero() and not got_b.is_zero()
        qz += any(type(c) is Scalar for c in got.terms.values())
    assert nonzero > 30 and qz > 5
    # the fixed denominators 1/3 and 2/5 survive the one final division
    u = mono([(1, 1)], F(1, 3))
    v = mono([(1, 1)], Scalar(F(2, 5), F(1, 3)))
    for n in range(-2, 3):
        _same_coefficients(check_skew_symmetry(u, v, n), _reference_skew(u, v, n))
        _same_coefficients(check_borcherds(u, v, u, n, 0, 1),
                           _reference_borcherds(u, v, u, n, 0, 1))


def test_borcherds_sums_end_where_the_reference_loops_stop(monkeypatch):
    # the spurious kernel term never vanishes, so a term added or dropped at
    # either end of either sum changes the residual
    monkeypatch.setattr(vertex, "_monomial_product",
                        _wrong_kernel(vertex._monomial_product))
    rng = random.Random(15)
    ends = set()
    for _ in range(60):
        basis = rng.choice([ALPHA, BETA])
        u, v, w = (_residual_states(rng, basis) for _ in range(3))
        p, q, r = (rng.randint(-6, 6) for _ in range(3))
        _same_coefficients(check_borcherds(u, v, w, p, q, r),
                           _reference_borcherds(u, v, w, p, q, r))
        wt_u, wt_v, wt_w = u.max_weight(), v.max_weight(), w.max_weight()
        # which end binds: the binomial's (C(., i) = 0 past i = p or r) or
        # the weights'
        ends.add(("first", 0 <= p < wt_u + wt_v - r - 1))
        ends.add(("second",
                  0 <= r < max(wt_v + wt_w - q, wt_u + wt_w - p) - 1))
    assert ends == {(s, b) for s in ("first", "second") for b in (False, True)}


def test_divided_powers_are_iterated_translations():
    rng = random.Random(14)
    repeated = 0
    for trial in range(60):
        basis = rng.choice([ALPHA, BETA])
        v = FockState(3, basis)
        for _ in range(rng.randint(1, 3)):
            mon = _rand_monomial(rng, 5)
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            v._add_term(mon, Scalar(c, rng.choice([0, 0, F(1, 2)])))
        if trial % 10 == 0:
            v = v + FockState.vacuum(3, basis)
        repeated += any(len(set(m)) < len(m) for m in v.terms)
        assert translate(v) == _derivation(v)
        for k in range(7):
            _same_coefficients(translate_power(v, k), _iterated_translate(v, k))
    assert repeated > 10
    for basis in (ALPHA, BETA):
        vac = FockState.vacuum(3, basis)
        assert translate_power(vac, 0) == vac
        for k in range(1, 7):
            assert translate_power(vac, k).is_zero()
