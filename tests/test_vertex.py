import random
from fractions import Fraction as F

import pytest

from h3orbifold.fock import (_BETA_PAIR, ALPHA, BETA, FockState, canonical,
                             enumerate_basis, monomial_weight)
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


def test_weight_cap_guard():
    u = mono([(1, 1)])
    with pytest.raises(ValueError):
        nth_product(u, -12, u, weight_cap=8)


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
        got = _monomial_product(basis, u, n, v)
        assert got == _recursive_product(basis, u, n, v, memo), (basis, u, n, v)
        assert all(type(c) is int and c for c in got.values())
        repeated += len(set(u)) < len(u) and len(set(v)) < len(v)
        if n >= monomial_weight(u) + monomial_weight(v):
            beyond += 1
            assert got == {}
    assert repeated > 50 and beyond > 50


def test_wick_kernel_contracts_repeated_modes_both_ways():
    # a(-1)^2 |0> is :a(z)a(z):, whose 3-mode contracts both copies of
    # a(-1) in v, in either order; in the b basis field 2 pairs with 3 only
    square = ((1, 1), (1, 1))
    assert _monomial_product("a", square, 3, square) == {(): 2}
    b2, b3 = ((1, 2), (1, 2)), ((1, 3), (1, 3))
    assert _monomial_product("b", b2, 3, b3) == {(): 2}
    assert _monomial_product("b", b2, 3, b2) == {}


def test_single_modes_are_creation_and_annihilation():
    # (x_f(-m)|0>)_{-1} v = x_f(-m) v, and (x_f(-1)|0>)_l v = x_f(l) v
    assert _monomial_product("a", ((1, 1),), -1, ()) == {((1, 1),): 1}
    assert _monomial_product("a", ((2, 1),), -1, ((1, 1),)) == {((2, 1), (1, 1)): 1}
    assert _monomial_product("a", ((1, 1),), 1, ((1, 1),)) == {(): 1}
    assert _monomial_product("a", ((1, 1),), 2, ((2, 1),)) == {(): 2}
    assert _monomial_product("a", ((1, 2),), 1, ((1, 1),)) == {}
    rng = random.Random(12)
    for _ in range(200):
        basis = rng.choice([ALPHA, BETA])
        v = _rand_monomial(rng, 6)
        state = FockState(3, basis, {v: F(1)})
        field, level = rng.randint(1, 3), rng.randint(1, 3)
        assert (_monomial_product(basis, ((level, field),), -1, v)
                == state.apply_creation(field, level).terms)
        assert (_monomial_product(basis, ((1, field),), level, v)
                == state.apply_annihilation(field, level).terms)
