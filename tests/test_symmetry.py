import random
from fractions import Fraction as F

import pytest

from h3orbifold.fock import (ALPHA, BETA, FockState, canonical, change_basis,
                             enumerate_basis)
from h3orbifold.scalars import ZETA
from h3orbifold.symmetry import (GROUPS, GeneratorId, Permutation,
                                 _action_table, act, build_generator,
                                 gen, is_invariant, reynolds,
                                 verify_generator_translation)
from h3orbifold.vertex import nth_product


def mono(modes, coeff=F(1), basis=ALPHA):
    return FockState.monomial(3, modes, coeff, basis)


def rand_state(rng, basis=ALPHA, maxw=3):
    out = FockState(3, basis)
    for _ in range(rng.randint(1, 3)):
        w = rng.randint(0, maxw)
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        if basis == BETA and rng.random() < 0.3:
            c = c * ZETA
        out._add_term(rng.choice(enumerate_basis(3, w)), c)
    return out


def test_permutation_algebra():
    s = Permutation((2, 1, 3))
    c = Permutation((2, 3, 1))
    assert (s * s).images == (1, 2, 3)
    assert s.inverse() == s
    assert c.cycle_type() == (3,)
    assert s.cycle_type() == (2, 1)
    assert len(set(GROUPS["S3"])) == 6
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_alpha_action_examples():
    swap12 = Permutation((2, 1, 3))
    assert act(swap12, mono([(1, 1)])) == mono([(1, 2)])
    ident = Permutation((1, 2, 3))
    rng = random.Random(1)
    for _ in range(10):
        v = rand_state(rng)
        assert act(ident, v) == v


def test_beta_action_displayed_values():
    swap23 = Permutation((1, 3, 2))
    cyc = Permutation((2, 3, 1))  # 1 -> 2 -> 3 -> 1
    b1 = mono([(1, 1)], basis=BETA)
    b2 = mono([(1, 2)], basis=BETA)
    b3 = mono([(1, 3)], basis=BETA)
    assert act(swap23, b2) == b3
    assert act(swap23, b3) == b2
    assert act(swap23, b1) == b1
    assert act(cyc, b2) == b2.scale(ZETA)
    assert act(cyc, b3) == b3.scale(ZETA * ZETA)
    assert act(cyc, b1) == b1


def test_action_is_linear_over_the_cyclotomic_field():
    # scaling by z commutes with every group element
    swap23 = Permutation((1, 3, 2))
    v = mono([(1, 2)], ZETA, basis=BETA)
    assert act(swap23, v) == mono([(1, 3)], ZETA, basis=BETA)


def test_beta_action_matches_alpha_action_through_basis_change():
    rng = random.Random(13)
    for sigma in GROUPS["S3"]:
        for _ in range(6):
            v = rand_state(rng, ALPHA)
            direct = act(sigma, v)
            via_beta = change_basis(act(sigma, change_basis(v, BETA)), ALPHA)
            assert direct == via_beta


def test_action_composition():
    rng = random.Random(17)
    for _ in range(25):
        basis = rng.choice([ALPHA, BETA])
        v = rand_state(rng, basis)
        s = rng.choice(GROUPS["S3"])
        t = rng.choice(GROUPS["S3"])
        assert act(s * t, v) == act(s, act(t, v))


def test_reynolds_examples():
    w200 = gen("omega2_0", 0, 0)
    assert reynolds("S3", w200) == w200
    a1 = mono([(1, 1)])
    avg = reynolds("S3", a1)
    expected = (mono([(1, 1)]) + mono([(1, 2)]) + mono([(1, 3)])).scale(F(1, 3))
    assert avg == expected


def test_reynolds_idempotent_and_invariant():
    rng = random.Random(19)
    for group in ("S3", "Z3", "S2"):
        for _ in range(15):
            v = rand_state(rng, rng.choice([ALPHA, BETA]))
            p = reynolds(group, v)
            assert reynolds(group, p) == p
            for sigma in GROUPS[group]:
                assert act(sigma, p) == p


def test_generator_builders():
    w1 = gen("omega1", 2)
    assert w1 == mono([(3, 1)]) + mono([(3, 2)]) + mono([(3, 3)])
    w23 = gen("omega23_0", 1, 0)
    assert w23 == mono([(2, 2), (1, 3)], basis=BETA)
    w3 = gen("omega3_0", 0, 1, 2)
    assert w3.weight() == 6
    assert build_generator(GeneratorId("omega3_0", (0, 1, 2))).weight() == 6
    assert gen("omega2_0", 1, 3) == gen("omega2_0", 3, 1)  # symmetric
    with pytest.raises(ValueError):
        gen("omega2_0", 1)
    with pytest.raises(ValueError):
        gen("omega1_0", -1)
    with pytest.raises(ValueError):
        build_generator(GeneratorId("q_k", (0,)))


def test_generators_invariant_under_their_groups():
    for fam, idx in [("omega1", (0,)), ("omega2", (0, 2)), ("omega3", (0, 1, 2)),
                     ("omega1_0", (1,)), ("omega2_0", (0, 3)),
                     ("omega3_0", (0, 0, 2))]:
        assert is_invariant("S3", gen(fam, *idx)), fam
    for fam, idx in [("omega23_0", (0, 2)), ("omega222_0", (0, 0, 1)),
                     ("omega333_0", (0, 1, 1))]:
        assert is_invariant("Z3", gen(fam, *idx)), fam
        assert not is_invariant("S3", gen(fam, *idx)) or fam == "omega23_0"


def test_invariance_of_states_with_different_fields_at_one_level():
    # a permutation reorders the modes of a level block, so the image must
    # be re-sorted before its coefficient is read: (omega1(0))_{-1} omega1(0)
    # holds 2 a1(-1)a2(-1), and omega2_0(0,0) is 2 b2(-1)b3(-1)
    square = nth_product(gen("omega1", 0), -1, gen("omega1", 0))
    assert square.terms[((1, 1), (1, 2))] == 2
    assert is_invariant("S3", square)
    assert is_invariant("S3", gen("omega2_0", 0, 0))
    assert not is_invariant("S3", FockState.monomial(3, [(1, 1), (1, 2)]))


def test_generator_translation_bridge():
    # rewriting the standard-basis generators in the diagonal basis
    for a in range(4):
        assert verify_generator_translation(a).is_zero()
    for (a, b) in [(0, 0), (0, 1), (1, 2), (0, 4), (2, 2)]:
        assert verify_generator_translation(a, b).is_zero()
    for (a, b, c) in [(0, 0, 0), (0, 0, 1), (0, 1, 2), (1, 1, 1), (0, 2, 3)]:
        assert verify_generator_translation(a, b, c).is_zero()


def test_generator_translation_refuses_a_third_index_without_a_second():
    # it used to check the omega1 bridge alone and return its zero residual
    with pytest.raises(ValueError, match="third index"):
        verify_generator_translation(0, None, 2)


def test_generator_translation_squared_form():
    # the linear bridge in its paired form: w1(a) . w1(b) = 3 * (diagonal side)
    for (a, b) in [(0, 0), (0, 1), (1, 2)]:
        lhs = nth_product(gen("omega1", a), -1, gen("omega1", b))
        rhs = change_basis(
            nth_product(gen("omega1_0", a), -1, gen("omega1_0", b)), ALPHA)
        assert lhs == rhs.scale(3)


def test_beta_action_table_is_diagonal_on_z3_and_swaps_b2_b3_on_a_transposition():
    # the charge blocks of the Z3 span rest on this: the 3-cycles fix b1
    # and scale b2 and b3 by inverse cube roots of unity; each entry is
    # (new field, exponent of z)
    assert _action_table((1, 2, 3), BETA) == ((1, 0), (2, 0), (3, 0))
    assert _action_table((2, 3, 1), BETA) == ((1, 0), (2, 1), (3, 2))
    assert _action_table((3, 1, 2), BETA) == ((1, 0), (2, 2), (3, 1))
    assert _action_table((1, 3, 2), BETA) == ((1, 0), (3, 0), (2, 0))
    # the other two transpositions swap b2 and b3 with a cube root of unity
    assert _action_table((2, 1, 3), BETA) == ((1, 0), (3, 2), (2, 1))
    assert _action_table((3, 2, 1), BETA) == ((1, 0), (3, 1), (2, 2))


def _permuted_in_a(sigma, state):
    """The oracle action on the ``a`` basis: relabel every field."""
    return FockState(3, ALPHA, {canonical((lv, sigma(f)) for lv, f in mon): c
                                for mon, c in state.terms.items()})


@pytest.mark.parametrize("basis", [ALPHA, BETA])
@pytest.mark.parametrize("sigma", GROUPS["S3"],
                         ids=lambda s: "".join(map(str, s.images)))
def test_action_table_equals_the_basis_change_round_trip(sigma, basis):
    # each mode x_f(-m) is moved to the a basis, permuted there and moved
    # back; the image is z^k x_h(-m) for the table's entry (h, k)
    for f, (h, k) in zip((1, 2, 3), _action_table(sigma.images, basis)):
        for level in (1, 2):
            x_f = FockState.monomial(3, [(level, f)], basis=basis)
            image = change_basis(_permuted_in_a(sigma, change_basis(x_f, ALPHA)),
                                 basis)
            x_h = FockState.monomial(3, [(level, h)], basis=basis)
            assert image == x_h.scale((1, ZETA, ZETA * ZETA)[k]), (f, level)


def _image(sigma, state):
    """The oracle image of a state, built without ``symmetry``: relabel the
    fields in the ``a`` basis and re-sort, through ``change_basis`` from the
    ``b`` basis."""
    if state.basis == ALPHA:
        return _permuted_in_a(sigma, state)
    return change_basis(_permuted_in_a(sigma, change_basis(state, ALPHA)), BETA)


def test_invariance_is_checked_against_the_image_states():
    # is_invariant reads coefficients through the table and builds no
    # image; it and act must agree with the oracle images
    rng = random.Random(23)
    cases = [gen("omega23_0", 0, 1), gen("omega222_0", 0, 0, 1),
             gen("omega3_0", 0, 1, 2), gen("omega2", 0, 2),
             gen("omega23_0", 0, 1).scale(ZETA),
             gen("omega2_0", 0, 1) + gen("omega23_0", 1, 0).scale(ZETA)]
    for basis in (ALPHA, BETA):
        for _ in range(20):
            v = rand_state(rng, basis)
            cases += [v, reynolds("Z3", v), reynolds("S3", v), reynolds("S2", v)]
    for group in ("S3", "Z3", "S2"):
        for v in cases:
            images = [_image(sigma, v) for sigma in GROUPS[group]]
            assert [act(sigma, v) for sigma in GROUPS[group]] == images
            assert is_invariant(group, v) == all(x == v for x in images), (
                group, v)


def test_invariance_refuses_an_unknown_group_as_reynolds_does():
    v = gen("omega1", 0)
    for check in (is_invariant, reynolds):
        with pytest.raises(ValueError, match="unknown group spec 'D4'"):
            check("D4", v)
