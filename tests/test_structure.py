from fractions import Fraction as F
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from h3orbifold import structure, vertex
from h3orbifold.fock import (BETA, FockState, canonical, change_basis,
                             enumerate_basis)
from h3orbifold.linalg import Echelon, det_bareiss
from h3orbifold.scalars import ZETA
from h3orbifold.structure import (DET_A_PATTERNS, MAX_SPAN_WEIGHT,
                                  S3_DIAGONAL_GENERATOR_IDS, S3_GENERATOR_IDS,
                                  Z3_GENERATOR_IDS, build_D,
                                  check_decomposition,
                                  cubic_family_coefficients, det_A,
                                  det_A_closed_form, det_A_even_polynomial,
                                  det_A_matrix, span_dims)
from h3orbifold.symmetry import (GROUPS, GeneratorId, act, build_generator,
                                 gen, is_invariant)
from h3orbifold.relations import D3, Tk
from h3orbifold.vertex import nth_product


def test_build_D_weights():
    # at all-equal indices the alternating sums cancel outright
    assert build_D("D5", (0, 0, 0, 0, 0)).is_zero()
    assert build_D("D5", (0, 0, 0, 1, 1)).weight() == 7
    assert build_D("D6_1", (0, 0, 0, 0, 1, 1)).weight() == 8
    assert build_D("D6_2", (0, 0, 0, 0, 1, 1)).weight() == 8
    with pytest.raises(ValueError):
        build_D("D5", (0, 0, 0))
    with pytest.raises(ValueError):
        build_D("D9", (0,) * 6)


def test_nested_product_divides_by_every_denominator():
    from h3orbifold.structure import _nested_product
    from h3orbifold.vertex import _scaled, _unscaled
    states = [gen("omega1_0", 1).scale(F(2, 3)),
              gen("omega2_0", 0, 1).scale(ZETA + F(1, 5)),
              gen("omega3_0", 0, 0, 1).scale(F(-3, 7))]
    want = nth_product(states[0], -1, nth_product(states[1], -1, states[2]))
    forms = [_scaled(s) for s in states]
    got = _unscaled(3, BETA, *_nested_product(BETA, forms))
    assert got == want and not got.is_zero()



def test_gen_returns_a_fresh_state():
    first = gen("omega2_0", 0, 1)
    want = dict(first.terms)
    first.terms.clear()
    first._add_term(((5, 1),), F(7))
    assert gen("omega2_0", 0, 1).terms == want


def test_build_D_states_share_nothing_with_the_generator_table():
    idx = (0, 0, 1, 2, 2, 3)
    for rel in ("D6_1", "D6_2"):
        want = build_D(rel, idx)
        assert not want.is_zero()
        copy = dict(want.terms)
        got = build_D(rel, idx)
        for mon in list(got.terms):
            got.terms[mon] *= 3
        got.terms[((9, 1),)] = F(1)
        # a generator built by gen and changed does not reach the table
        gen("omega2_0", 0, 0).terms.clear()
        assert build_D(rel, idx).terms == copy

def test_D5_is_pure_cubic():
    for idx in [(0, 0, 0, 0, 0), (0, 0, 0, 1, 1), (0, 0, 1, 1, 2), (1, 0, 2, 0, 1)]:
        st = build_D("D5", idx)
        assert all(len(m) == 3 for m in st.terms), idx


def test_check_decomposition_D5():
    rep = check_decomposition("D5", (0, 0, 0, 1, 1))
    assert rep.ok
    assert rep.cubic and not rep.quartic and not rep.quadratic
    assert all(sum(k) == 4 for k in rep.cubic)
    rep0 = check_decomposition("D5", (0, 0, 0, 0, 0))
    assert rep0.ok


def test_check_decomposition_D6():
    for rel in ("D6_1", "D6_2"):
        rep = check_decomposition(rel, (0, 0, 0, 0, 1, 1))
        assert rep.ok, rel
        # no six-mode residue: the sextic part cancels identically
        assert rep.residual_monomials == 0
        assert all(sum(a) + sum(b) == 4 for a, b in rep.quartic)
        assert all(sum(k) == 6 for k in rep.quadratic)


def test_cubic_family_coefficients_unique_readoff():
    st = gen("omega3_0", 0, 1, 2).scale(F(5, 3)) + gen("omega3_0", 0, 0, 0).scale(-2)
    mu = cubic_family_coefficients(st)
    assert mu == {(0, 1, 2): F(5, 3), (0, 0, 0): F(-2)}
    with pytest.raises(ValueError):
        cubic_family_coefficients(gen("omega2_0", 0, 0))
    with pytest.raises(ValueError):
        cubic_family_coefficients(gen("omega222_0", 0, 0, 0))


def test_det_A_basic_contract():
    with pytest.raises(ValueError):
        det_A(7)
    with pytest.raises(ValueError):
        det_A(4)
    # collision-free arguments give a nonzero determinant
    for a in (10, 12):
        assert det_A(a) != 0
    # label collisions at 6 and 8 force repeated rows
    m6 = det_A_matrix(6)
    assert m6[2] == m6[4]
    assert det_A(6) == 0


#: SHA-256 of str(det_A(a)) for a = 6, 8, ..., 40, one line each, and of
#: the repr of check_decomposition for each of DECOMPOSITION_CASES, one line
#: each; recorded before nth_product and build_D worked on scaled integers
DET_A_SHA256 = "35ecfe3ad4b6eaf22125763a142e8ec468c331f290b3253cfff968be862e1435"
DECOMPOSITION_SHA256 = "789b168d20b42a6527f7cf91b61e92a61a5b2fb42e765dcc2362439a15109431"
DECOMPOSITION_CASES = (
    [("D5", t) for t in [
        (0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, 2), (0, 0, 0, 0, 3),
        (0, 0, 0, 0, 4), (0, 0, 0, 0, 5), (0, 0, 0, 1, 1), (0, 0, 0, 1, 2),
        (0, 0, 0, 1, 3), (0, 0, 0, 1, 4), (0, 0, 0, 2, 2), (0, 0, 0, 2, 3),
        (0, 0, 1, 1, 1), (0, 0, 1, 1, 2), (0, 0, 1, 1, 3), (0, 0, 1, 2, 2),
        (0, 1, 1, 1, 1), (0, 1, 1, 1, 2), (1, 1, 1, 1, 1)]]
    + [(rel, t) for rel in ("D6_1", "D6_2") for t in [
        (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 2),
        (0, 0, 0, 0, 0, 3), (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 2),
        (0, 0, 0, 1, 1, 1)]])


def _sha256_lines(lines) -> str:
    import hashlib
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_det_A_values_are_pinned():
    assert _sha256_lines(str(det_A(a)) for a in range(6, 41, 2)) == DET_A_SHA256


def test_decomposition_reports_are_pinned():
    assert len(DECOMPOSITION_CASES) == 33
    assert (_sha256_lines(repr(check_decomposition(rel, idx))
                          for rel, idx in DECOMPOSITION_CASES)
            == DECOMPOSITION_SHA256)


@pytest.mark.parametrize("rel, idx", [("D5", (0, 0, 1, 1, 2)),
                                      ("D6_1", (0, 0, 0, 0, 1, 2)),
                                      ("D6_2", (0, 0, 0, 1, 1, 1))])
def test_warm_decomposition_builds_no_generator_and_no_state_product(rel, idx):
    """Once the generator table holds what a decomposition needs, a second
    call reads every generator and quartic product from the scaled forms."""
    import sys
    counted = {build_generator.__code__, nth_product.__code__}
    check_decomposition(rel, idx)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        report = check_decomposition(rel, idx)
    finally:
        sys.setprofile(None)
    assert report.ok
    assert calls == []


def _det_A_factored(a: int) -> F:
    """(128/3)(a-6)(a-4)^2(a-3)(a-2)(a-1)(a+2) Q(a), the factorisation of
    det_A over even a found from the interpolated polynomial."""
    q = -106 * a ** 4 + 798 * a ** 3 - 1712 * a ** 2 + 75 * a + 2520
    return (F(128, 3) * (a - 6) * (a - 4) ** 2 * (a - 3) * (a - 2) * (a - 1)
            * (a + 2) * q)


@pytest.mark.parametrize("a", [6, *range(10, 51, 2)])
def test_det_A_equals_its_factorisation(a):
    assert det_A(a) == _det_A_factored(a)


def test_det_A_at_8_is_the_exception_to_its_factorisation():
    """Labels collide at a = 8, so two rows repeat and the determinant
    vanishes where the factorised polynomial does not."""
    assert det_A(8) == 0
    assert _det_A_factored(8) != 0


#: Q(a), the quartic factor of ``_det_A_factored``, highest degree first,
#: and the roots of its linear factors, with multiplicity
DET_A_QUARTIC = [F(c) for c in (-106, 798, -1712, 75, 2520)]
DET_A_LINEAR_ROOTS = (6, 4, 4, 3, 2, 1, -2)


def _horner(poly, x):
    out = F(0)
    for c in poly:
        out = out * x + c
    return out


def _sturm_sequence(poly):
    """p_0 = poly, p_1 = poly', p_(i+1) = -(p_(i-1) mod p_i), exactly over
    Fraction, until the remainder is zero; highest degree first."""
    top = len(poly) - 1
    seq = [poly, [c * (top - i) for i, c in enumerate(poly[:-1])]]
    while True:
        rem = list(seq[-2])
        div = seq[-1]
        while len(rem) >= len(div):
            q = rem[0] / div[0]
            rem = [r - q * d for r, d in zip(rem[1:], div[1:])] + rem[len(div):]
        while rem and rem[0] == 0:
            rem.pop(0)
        if not rem:
            return seq
        seq.append([-c for c in rem])


def _sign_changes(seq, x):
    """Sign changes of the sequence at x; x = +-inf reads leading terms."""
    if x in (inf, -inf):
        signs = [p[0] * (1 if x > 0 or len(p) % 2 else -1) for p in seq]
    else:
        signs = [_horner(p, x) for p in seq]
    signs = [s > 0 for s in signs if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_det_A_quartic_has_no_root_from_4_up_by_sturm():
    """Sturm's theorem: for p(a) != 0, V(a) - V(b) distinct real roots of
    p lie in (a, b].  Q has two, near -0.97 and 3.63, and none in [4, inf),
    so the pinned factorisation is nonzero at every even a >= 10."""
    seq = _sturm_sequence(DET_A_QUARTIC)
    assert len(seq[-1]) == 1  # gcd(Q, Q') is a constant: no repeated root

    def count(lo, hi):
        return _sign_changes(seq, lo) - _sign_changes(seq, hi)

    assert count(-inf, inf) == 2
    assert count(F(-1), F(-9, 10)) == 1
    assert count(F(18, 5), F(37, 10)) == 1
    assert _horner(DET_A_QUARTIC, 4) != 0 and count(F(4), inf) == 0
    # the helper is (128/3) prod (a - r) Q(a): both sides have degree 11,
    # so agreeing at 12 points they are the same polynomial
    for a in range(12):
        linear = F(128, 3)
        for r in DET_A_LINEAR_ROOTS:
            linear *= a - r
        assert _det_A_factored(a) == linear * _horner(DET_A_QUARTIC, a)
    # so for a >= 10 every linear factor is positive and Q(a) != 0
    assert max(DET_A_LINEAR_ROOTS) < 10
    assert all(_det_A_factored(a) != 0 for a in range(10, 201, 2))

def test_det_A_even_branch_has_the_quoted_singular_factors():
    """The determinant, as a polynomial over even arguments, is divisible by
    exactly the singular factors of the quoted closed form."""
    poly = det_A_even_polynomial()  # checks itself against one extra sample
    assert len(poly) - 1 == 11  # same degree as the closed form

    def divide_out(coeffs, root):
        out = []
        carry = F(0)
        for c in reversed(coeffs):
            carry = c + carry * root
            out.append(carry)
        assert out[-1] == 0, f"not divisible by (a - {root})"
        return list(reversed(out[:-1]))

    res = poly
    for root in (4, 4, 3, 1, -2):
        res = divide_out(res, root)
    assert len(res) - 1 == 6  # a degree-6 factor remains, as in the closed form


def test_span_matches_burnside_targets():
    rep = span_dims(S3_GENERATOR_IDS, 5, "S3")
    assert [rep.dims_spanned[w] for w in range(6)] == [1, 1, 3, 6, 13, 24]
    assert rep.all_matched
    rep = span_dims(Z3_GENERATOR_IDS, 5, "Z3")
    assert [rep.dims_spanned[w] for w in range(6)] == [1, 1, 3, 8, 17, 36]
    assert rep.all_matched


def test_span_monotone_in_generators():
    small = span_dims(S3_GENERATOR_IDS[:4], 5, "S3")
    full = span_dims(S3_GENERATOR_IDS, 5, "S3")
    for w in range(6):
        assert small.dims_spanned[w] <= full.dims_spanned[w]


def test_span_rejects_non_invariant_generator():
    bad = FockState.monomial(3, [(1, 1)])
    with pytest.raises(ValueError):
        span_dims([bad], 3, "S3")


def test_span_full_initial_family_saturates():
    # every invariant of the initial families up to the cap stays inside
    gens = []
    for a in range(5):
        gens.append(GeneratorId("omega1", (a,)))
    for a in range(4):
        for b in range(a, 4):
            if a + b <= 3:
                gens.append(GeneratorId("omega2", (a, b)))
    for t in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 0, 2), (1, 1, 1)]:
        gens.append(GeneratorId("omega3", t))
    rep = span_dims(gens, 5, "S3")
    assert rep.all_matched


def test_reynolds_rank_equals_burnside_count():
    from h3orbifold.qseries import orbifold_character
    from h3orbifold.symmetry import reynolds
    for group in ("S3", "Z3"):
        ch = orbifold_character(group, 9)
        for w in range(9):
            ech = Echelon()
            for monomial in enumerate_basis(3, w):
                state = FockState(3, "a", {monomial: F(1)})
                ech.insert(reynolds(group, state).terms)
            assert ech.rank == ch.coefficient(ch.offset + w), (group, w)


def test_z3_mirror_relations():
    # the field-2 cube identities hold verbatim for the field-3 cube family
    w333 = lambda *i: gen("omega333_0", *i)
    w23 = lambda a, b: gen("omega23_0", a, b)

    def D3m(a, b):
        # mirrored tool: couple through the opposite quadratic order
        return (nth_product(w23(a, 0), -1, w333(0, 0, b))
                - nth_product(w23(a, b), -1, w333(0, 0, 0)))

    for a in (3, 4, 5):
        rhs = (Tk(w333(0, 0, a - 1), 1)
               + D3m(a - 3, 1).scale(F((-1) ** a, a - 2))).scale(F(1, 3 * a + 1))
        assert (w333(0, 0, a) - rhs).is_zero(), a


def test_z3_setup_derivative_displays():
    # weight-4/5 cube reductions; the translation coefficient on the second
    # line reads 2/3 in the display but the identity requires 1/3
    for fam in ("omega222_0", "omega333_0"):
        w = lambda *i: gen(fam, *i)
        assert (w(0, 0, 1) - Tk(w(0, 0, 0), 1).scale(F(1, 3))).is_zero()
        lhs = w(0, 1, 1)
        rhs = w(0, 0, 2).scale(-1) + Tk(w(0, 0, 0), 2).scale(F(1, 3))
        assert (lhs - rhs).is_zero()


def test_s3_span_in_the_b_basis_matches_the_a_basis():
    # the b pairing (field 2 with 3) against the a pairing, same generators
    from h3orbifold.fock import change_basis
    from h3orbifold.symmetry import build_generator
    gens = [change_basis(build_generator(g), "b") for g in S3_GENERATOR_IDS]
    assert all(g.basis == "b" for g in gens)
    rep_b = span_dims(gens, 6, "S3")
    rep_a = span_dims(S3_GENERATOR_IDS, 6, "S3")
    assert rep_b.dims_spanned == rep_a.dims_spanned
    assert rep_b.all_matched


def test_product_memo_holds_integers_after_a_span():
    from h3orbifold.vertex import _PRODUCT_CACHE, clear_product_cache
    clear_product_cache()
    span_dims(Z3_GENERATOR_IDS, 6, "Z3")
    assert _PRODUCT_CACHE
    assert all(type(c) is int for row in _PRODUCT_CACHE.values()
               for terms in row.values() for c in terms[1::2])


#: strong-span dims of the paper's generating sets; they equal the invariant
#: dims at every weight.  Recorded with the LIFO closure (every negative mode
#: on every spanning vector, as ``_reference_close``) through S3 weight 9 and
#: Z3 weight 10, and past that with the weight-by-weight closure
S3_SPAN_DIMS = [1, 1, 3, 6, 13, 24, 49, 87, 162, 284, 499]
Z3_SPAN_DIMS = [1, 1, 3, 8, 17, 36, 75, 143, 270, 495, 880, 1533, 2626]

#: dims with one generator dropped, recorded with the LIFO closure: S3 through
#: weight 6, Z3 through weight 7.  In 10 of the 16 cases ``_close`` accepts
#: products that extend no ordered monomial, so these test the pairs it tries
#: after the ordered ones
DROP_SPAN_DIMS = {
    ("S3", "omega1(0)"): [1, 0, 1, 2, 4, 7, 14],
    ("S3", "omega2(0,0)"): [1, 1, 2, 4, 9, 16, 31],
    ("S3", "omega2(0,2)"): [1, 1, 3, 6, 12, 22, 45],
    ("S3", "omega2(0,4)"): [1, 1, 3, 6, 13, 24, 48],
    ("S3", "omega3(0,0,0)"): [1, 1, 3, 5, 11, 19, 38],
    ("S3", "omega3(0,0,2)"): [1, 1, 3, 6, 13, 23, 47],
    ("S3", "omega3(0,1,2)"): [1, 1, 3, 6, 13, 24, 48],
    ("Z3", "omega1_0(0)"): [1, 0, 1, 4, 6, 12, 23, 36],
    ("Z3", "omega23_0(0,0)"): [1, 1, 2, 6, 12, 24, 49, 93],
    ("Z3", "omega23_0(0,1)"): [1, 1, 3, 7, 15, 31, 65, 125],
    ("Z3", "omega23_0(0,2)"): [1, 1, 3, 8, 16, 34, 72, 137],
    ("Z3", "omega23_0(0,3)"): [1, 1, 3, 8, 17, 35, 74, 141],
    ("Z3", "omega222_0(0,0,0)"): [1, 1, 3, 7, 15, 31, 63, 119],
    ("Z3", "omega222_0(0,0,2)"): [1, 1, 3, 8, 17, 35, 74, 141],
    ("Z3", "omega333_0(0,0,0)"): [1, 1, 3, 7, 15, 31, 63, 119],
    ("Z3", "omega333_0(0,0,2)"): [1, 1, 3, 8, 17, 35, 74, 141],
}


def _generating_set(group):
    return S3_GENERATOR_IDS if group == "S3" else Z3_GENERATOR_IDS


@pytest.mark.parametrize("group, max_weight",
                         [("S3", w) for w in range(9)]
                         + [("Z3", w) for w in range(10)])
def test_span_dims_are_pinned(group, max_weight):
    rep = span_dims(_generating_set(group), max_weight, group)
    pinned = S3_SPAN_DIMS if group == "S3" else Z3_SPAN_DIMS
    assert list(rep.dims_spanned.values()) == pinned[:max_weight + 1]
    assert rep.all_matched


def test_strong_generation_holds_past_the_freeness_break():
    # the free character of the S3 generating type first exceeds the
    # orbifold's at q^9 (criterion 5), that of the Z3 type at q^6; from there
    # on the generator monomials are dependent
    rep = span_dims(S3_GENERATOR_IDS, 10, "S3")
    assert list(rep.dims_spanned.values()) == S3_SPAN_DIMS
    assert rep.all_matched
    rep = span_dims(Z3_GENERATOR_IDS, 12, "Z3")
    assert list(rep.dims_spanned.values()) == Z3_SPAN_DIMS
    assert rep.all_matched


@pytest.mark.parametrize("group, dropped", list(DROP_SPAN_DIMS),
                         ids=lambda key: str(key))
def test_single_drop_dims_are_pinned(group, dropped):
    gens = [g for g in _generating_set(group) if str(g) != dropped]
    pinned = DROP_SPAN_DIMS[group, dropped]
    rep = span_dims(gens, len(pinned) - 1, group)
    assert list(rep.dims_spanned.values()) == pinned
    assert not rep.all_matched


def _reference_close(states, max_weight, basis):
    """The closure over Q, last in first out: every negative mode of every
    state on every vector that enlarged its weight's span, as rational
    FockState products, echelon rows keyed by monomials;
    ``structure._close`` must give the same ranks."""
    echelons = [Echelon() for _ in range(max_weight + 1)]
    vac = FockState.vacuum(3, basis)
    echelons[0].insert(vac.terms)
    weights = [s.max_weight() for s in states]
    queue = [(vac, 0)]
    while queue:
        x, wx = queue.pop()
        for s, ws in zip(states, weights):
            for n in range(-1, ws + wx - max_weight - 2, -1):
                prod = nth_product(s, n, x)
                w = prod.max_weight()
                if not prod.is_zero() and echelons[w].insert(prod.terms):
                    queue.append((prod, w))
    return {w: e.rank for w, e in enumerate(echelons)}


@st.composite
def _generator_families(draw):
    """(group, scaled generator states, max weight): a random subset of a
    paper generating set, in random order, each scaled by a random nonzero
    rational, the S3 set in either basis, sometimes with the vacuum, a
    generator of weight 0, at a random place."""
    group = draw(st.sampled_from(["S3", "Z3"]))
    ids = _generating_set(group)
    picks = draw(st.lists(st.sampled_from(range(len(ids))), unique=True,
                          max_size=len(ids)))
    basis = draw(st.sampled_from(["a", BETA])) if group == "S3" else BETA
    scales = st.fractions(-9, 9, max_denominator=9).filter(bool)
    states = [change_basis(build_generator(ids[k]), basis).scale(draw(scales))
              for k in picks]
    if draw(st.booleans()):
        states.insert(draw(st.integers(0, len(states))),
                      FockState.vacuum(3, basis).scale(draw(scales)))
    return group, states, draw(st.integers(0, 6))


def _open_room(max_weight):
    """A room that never fills: every (weight, charge) grade up to
    max_weight, each with unbounded dimension."""
    return {(w, q): inf for w in range(max_weight + 1) for q in range(-w, w + 1)}


@settings(max_examples=60, deadline=None)
@given(_generator_families())
def test_span_dims_equal_the_rational_closure(family):
    # _close runs in H(3) with the weight room of the targets, which the
    # reference closure does not have
    group, states, max_weight = family
    basis = states[0].basis if states else "a"
    full = _reference_close(states, max_weight, basis)
    assert span_dims(states, max_weight, group).dims_spanned == full
    room = {(w, 0): d
            for w, d in structure._target_dims(group, max_weight).items()}
    assert structure._close(states, [0] * len(states), room, max_weight,
                            basis) == full


def _memo_keys():
    """The (basis, u, n, v) of every product in the memo's rows."""
    from h3orbifold.vertex import _PRODUCT_CACHE
    return {(*key, v) for key, row in _PRODUCT_CACHE.items() for v in row}


def test_span_forms_the_same_products_as_the_rational_closure():
    # the memo holds exactly the monomial products asked for; with a room
    # that never fills, _close forms every mode of every generator on every
    # accepted vector, and so asks for the same ones as the rational,
    # monomial-keyed closure of the whole Z3 set at weight 10
    from h3orbifold.vertex import clear_product_cache
    clear_product_cache()
    states = [build_generator(g) for g in Z3_GENERATOR_IDS]
    structure._close(states, [0] * len(states), _open_room(10), 10, BETA)
    formed = _memo_keys()
    clear_product_cache()
    _reference_close(states, 10, BETA)
    assert _memo_keys() == formed
    assert len(formed) == 5476


def test_span_in_the_rank2_factor_forms_fewer_products():
    # span_dims splits off omega1_0 = b1(-1) and closes the rest in H(2),
    # where the ordered pairs fill every charge block and no other is
    # formed, and no product of negative charge: those blocks are mirror
    # images (461 products before the mirror)
    from h3orbifold.vertex import clear_product_cache
    clear_product_cache()
    span_dims(Z3_GENERATOR_IDS, 10, "Z3")
    assert len(_memo_keys()) == 333


def test_a_second_rank2_span_reads_its_euler_rows_from_the_memo():
    # the two rows of the Z3 targets and the two of ``_with_free_boson``
    from h3orbifold.qseries import _euler_product
    _euler_product.cache_clear()
    first = span_dims(Z3_GENERATOR_IDS, 8, "Z3")
    assert _euler_product.cache_info()[:2] == (0, 4)   # (hits, misses)
    second = span_dims(Z3_GENERATOR_IDS, 8, "Z3")
    assert _euler_product.cache_info()[:2] == (4, 4)
    assert second == first and first.all_matched


def _unreduced_dims(gens, max_weight):
    """The ranks of the closure in H(3), with a room that never fills."""
    states = [build_generator(g) for g in gens]
    return structure._close(states, [0] * len(states),
                            _open_room(max_weight), max_weight, BETA)


@pytest.mark.parametrize("dropped", [None] + [str(g) for g in Z3_GENERATOR_IDS[1:]])
def test_rank2_span_equals_the_closure_in_h3(dropped):
    gens = [g for g in Z3_GENERATOR_IDS if str(g) != dropped]
    assert structure._field1_free_rest([build_generator(g) for g in gens],
                                       BETA) is not None
    rep = span_dims(gens, 10, "Z3")
    assert rep.dims_spanned == _unreduced_dims(gens, 10)
    assert rep.all_matched == (dropped is None)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["S3", "Z3"]), st.integers(0, 14), st.data())
def test_free_boson_factor_gives_the_targets_exactly_at_the_rank2_targets(
        group, max_weight, data):
    # the rank-2 targets are the targets times prod (1 - q^n), and dims of
    # C' convolved with the partition numbers meet the targets only there
    from h3orbifold.qseries import _euler_product
    target = structure._target_dims(group, max_weight)
    euler = _euler_product(1, max_weight, (), range(1, max_weight + 1))
    rank2 = structure._with_free_boson(target, remove=True)
    assert rank2 == {w: sum(euler[k] * target[w - k] for k in range(w + 1))
                     for w in target}
    # and they invert the partition convolution term by term:
    # d'_w = d_w - sum_{k>=1} p(k) d'_(w-k)
    p = _euler_product(1, max_weight, (1,))
    recurrence: dict = {}
    for w in target:
        recurrence[w] = target[w] - sum(p[k] * recurrence[w - k]
                                        for k in range(1, w + 1))
    assert rank2 == recurrence
    assert all(d >= 0 for d in rank2.values())
    ranks = dict(rank2)
    if data.draw(st.booleans()):
        w = data.draw(st.integers(0, max_weight))
        ranks[w] = data.draw(st.integers(0, 2 * rank2[w] + 2)
                             .filter(lambda d: d != rank2[w]))
    assert (structure._with_free_boson(ranks) == target) == (ranks == rank2)


def test_span_without_the_free_boson_split_closes_every_generator(monkeypatch):
    # the a-basis S3 set and the Z3 set without omega1_0 close every
    # generator, as before the split; the full Z3 set splits it off
    sizes = []
    close = structure._close

    def spy(states, *args, **kwargs):
        sizes.append(len(states))
        return close(states, *args, **kwargs)

    monkeypatch.setattr(structure, "_close", spy)
    for group, gens in (("S3", S3_GENERATOR_IDS), ("Z3", Z3_GENERATOR_IDS[1:])):
        sizes.clear()
        span_dims(gens, 5, group)
        assert sizes and set(sizes) == {len(gens)}, group
    sizes.clear()
    span_dims(Z3_GENERATOR_IDS, 5, "Z3")
    assert set(sizes) == {len(Z3_GENERATOR_IDS) - 1}


def test_free_boson_split_needs_a_rational_b1_and_field1_free_rest():
    b1 = build_generator(Z3_GENERATOR_IDS[0])
    rest = [build_generator(g) for g in Z3_GENERATOR_IDS[1:]]
    split = structure._field1_free_rest
    assert split([b1.scale(F(-2, 3))] + rest, BETA) == rest
    assert split(rest, BETA) is None
    assert split([b1.scale(ZETA)] + rest, BETA) is None
    assert split([b1, b1 + build_generator(GeneratorId("omega1_0", (1,)))],
                 BETA) is None
    s3_b = [change_basis(build_generator(g), BETA) for g in S3_GENERATOR_IDS]
    assert split(s3_b, BETA) is None
    assert split([build_generator(g) for g in S3_GENERATOR_IDS], "a") is None


def test_z3_block_dims_count_the_invariant_field1_free_monomials():
    dims = structure._z3_block_dims(9)
    counted: dict = {}
    for w in range(10):
        for mon in enumerate_basis(3, w):
            state = FockState(3, BETA, {mon: F(1)})
            q = structure._charge(state.terms)
            if q is not None and is_invariant("Z3", state):
                counted[w, q] = counted.get((w, q), 0) + 1
    assert dims == counted
    assert all(q % 3 == 0 for _, q in dims)


@pytest.mark.parametrize("max_weight", range(17))
def test_z3_block_dims_sum_to_the_rank2_targets(max_weight):
    dims = structure._z3_block_dims(max_weight)
    rank2 = structure._with_free_boson(
        structure._target_dims("Z3", max_weight), remove=True)
    sums = {w: 0 for w in range(max_weight + 1)}
    for (w, _), n in dims.items():
        sums[w] += n
    assert sums == rank2


def test_charge_reads_one_charge_of_field1_free_states():
    charge = structure._charge
    assert charge({}) == 0
    assert charge(gen("omega23_0", 0, 1).terms) == 0
    assert charge(gen("omega222_0", 0, 0, 2).terms) == 3
    assert charge(gen("omega333_0", 0, 0, 0).terms) == -3
    assert charge(gen("omega3_0", 0, 0, 0).terms) is None
    assert charge(gen("omega1_0", 0).terms) is None
    assert charge((gen("omega23_0", 0, 0) + gen("omega1_0", 1)).terms) is None


class _RecordedEchelon(Echelon):
    """An ``Echelon`` that lists itself and counts its inserts."""

    made: list = []

    def __init__(self):
        super().__init__()
        self.inserts = 0
        self.made.append(self)

    def insert(self, vec):
        self.inserts += 1
        return super().insert(vec)


def _recorded_close(monkeypatch, *args, **kwargs):
    """(ranks, rows of every echelon, insert calls) of ``_close``."""
    made = []
    monkeypatch.setattr(_RecordedEchelon, "made", made)
    monkeypatch.setattr(structure, "Echelon", _RecordedEchelon)
    ranks = structure._close(*args, **kwargs)
    monkeypatch.setattr(structure, "Echelon", Echelon)
    return ranks, [e.rows for e in made], sum(e.inserts for e in made)


def _close_calls(monkeypatch, gens, max_weight, group):
    """The (args, kwargs) of every ``_close`` call ``span_dims`` makes."""
    calls = []
    close = structure._close

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return close(*args, **kwargs)

    monkeypatch.setattr(structure, "_close", spy)
    span_dims(gens, max_weight, group)
    monkeypatch.setattr(structure, "_close", close)
    return calls


#: (group, generating set, max weight, dropped generator or None) of every
#: path through span_dims; the Z3 cases keep their bare ids
_ROOM_CASES = (
    [pytest.param("S3", S3_GENERATOR_IDS, 8, d, id=f"s3-{d}")
     for d in [None] + [str(g) for g in S3_GENERATOR_IDS]]
    + [pytest.param("S3", S3_DIAGONAL_GENERATOR_IDS, 7, d, id=f"diagonal-{d}")
       for d in [None] + [str(g) for g in S3_DIAGONAL_GENERATOR_IDS]]
    + [pytest.param("Z3", Z3_GENERATOR_IDS, 10, d, id=str(d))
       for d in [None] + [str(g) for g in Z3_GENERATOR_IDS]])


@pytest.mark.parametrize("group, ids, max_weight, dropped", _ROOM_CASES)
def test_full_charge_blocks_skip_only_products_insert_rejects(
        monkeypatch, group, ids, max_weight, dropped):
    # span_dims closes once, matched or not; with its room and with one
    # that never fills: the same echelon rows, and never more inserts
    gens = [g for g in ids if str(g) != dropped]
    calls = _close_calls(monkeypatch, gens, max_weight, group)
    assert len(calls) == 1
    ((states, charges, room, *rest), kwargs), = calls
    on = _recorded_close(monkeypatch, states, charges, room, *rest, **kwargs)
    off = _recorded_close(monkeypatch, states, charges,
                          _open_room(max_weight), *rest, **kwargs)
    assert on[:2] == off[:2]
    assert on[2] <= off[2]
    # the paper's Z3 set fills charge blocks before its last products
    if group == "Z3" and dropped is None:
        assert on[2] < off[2]


def test_span_dims_gives_each_set_its_room(monkeypatch):
    # Z3 b-basis sets of field-1-free states of one charge each get the
    # charge blocks; every other set charge 0 and the weight room of its
    # goal, the targets or, after the split, the rank-2 targets
    def room_of(gens, group):
        (args, _), *_ = _close_calls(monkeypatch, gens, 5, group)
        return args[1:3]

    target = {g: structure._target_dims(g, 5) for g in ("S3", "Z3")}
    weight_room = {g: {(w, 0): d for w, d in t.items()} for g, t in target.items()}
    rank2_room = {g: {(w, 0): d for w, d
                      in structure._with_free_boson(t, remove=True).items()}
                  for g, t in target.items()}
    blocks = structure._z3_block_dims(5)
    b1_2 = GeneratorId("omega1_0", (1,))   # b1(-2), a second field-1 state
    for gens, group, room in (
            (S3_GENERATOR_IDS, "S3", weight_room["S3"]),
            (S3_DIAGONAL_GENERATOR_IDS, "S3", rank2_room["S3"]),
            (Z3_GENERATOR_IDS + [b1_2], "Z3", weight_room["Z3"]),
            (S3_GENERATOR_IDS, "Z3", weight_room["Z3"])):   # the a basis
        charges, got = room_of(gens, group)
        assert got == room and set(charges) <= {0}, (group, len(gens))
    charges = [structure._charge(build_generator(g).terms)
               for g in Z3_GENERATOR_IDS[1:]]
    assert {0, 3, -3} <= set(charges)
    for gens in (Z3_GENERATOR_IDS, Z3_GENERATOR_IDS[1:]):
        assert room_of(gens, "Z3") == (charges, blocks)


def test_diagonal_s3_set_has_the_s3_generators_in_the_diagonal_basis():
    assert [str(g) for g in S3_DIAGONAL_GENERATOR_IDS] == [
        "omega1_0(0)", "omega2_0(0,0)", "omega2_0(0,2)", "omega2_0(0,4)",
        "omega3_0(0,0,0)", "omega3_0(0,0,2)", "omega3_0(0,1,2)"]


def test_diagonal_s3_set_certifies_strong_generation_through_weight_12():
    rep = span_dims(S3_DIAGONAL_GENERATOR_IDS, 12, "S3")
    assert list(rep.dims_spanned.values()) == S3_SPAN_DIMS + [846, 1436]
    assert rep.all_matched


#: dims of the diagonal S3 set with one generator dropped, recorded with the
#: full closure in H(3) through weight 7
DIAGONAL_DROP_SPAN_DIMS = {
    "omega1_0(0)": [1, 0, 1, 2, 4, 6, 13, 18],
    "omega2_0(0,0)": [1, 1, 2, 4, 8, 14, 27, 46],
    "omega2_0(0,2)": [1, 1, 3, 6, 12, 22, 44, 76],
    "omega2_0(0,4)": [1, 1, 3, 6, 13, 24, 48, 85],
    "omega3_0(0,0,0)": [1, 1, 3, 5, 11, 19, 38, 65],
    "omega3_0(0,0,2)": [1, 1, 3, 6, 13, 23, 47, 82],
    "omega3_0(0,1,2)": [1, 1, 3, 6, 13, 24, 48, 86],
}


@pytest.mark.parametrize("dropped", list(DIAGONAL_DROP_SPAN_DIMS))
def test_diagonal_s3_single_drop_dims_are_pinned(dropped):
    gens = [g for g in S3_DIAGONAL_GENERATOR_IDS if str(g) != dropped]
    pinned = DIAGONAL_DROP_SPAN_DIMS[dropped]
    rep = span_dims(gens, len(pinned) - 1, "S3")
    assert list(rep.dims_spanned.values()) == pinned
    assert not rep.all_matched


def _modes(basis):
    """The states x_f(-1), f = 1, 2, 3, of the basis."""
    return [FockState.monomial(3, [(1, f)], basis=basis) for f in (1, 2, 3)]


def _coefficient_one_elements(group, basis):
    """The oracle of the orbit maps: the group elements that map every mode
    x_f(-1) of the basis to one mode with coefficient 1, through ``act``."""
    return [sigma for sigma in GROUPS[group]
            if all(list(act(sigma, x).terms.values()) == [1]
                   for x in _modes(basis))]


@pytest.mark.parametrize("group, basis, size",
                         [("S3", "a", 6), ("S3", BETA, 2), ("Z3", "a", 3),
                          ("Z3", BETA, 1)])
def test_orbit_labels_keep_exactly_the_least_monomial_of_each_orbit(
        group, basis, size):
    # a monomial keeps its label only if it is the least of its orbit under
    # the elements that permute monomials with coefficient 1; Z3 in the b
    # basis has none but the identity, so every monomial keeps its label
    elements = _coefficient_one_elements(group, basis)
    assert len(elements) == size
    orbit = structure._orbit_maps(group, basis)
    assert len(orbit) == size - 1
    labels = structure._Labels(8, orbit)
    # each element's field map h, read from act's images x_h(-1) of the
    # modes x_f(-1); a monomial's image is relabelled and re-sorted here,
    # apart from the relabelling the labels use
    field_maps = []
    for sigma in elements:
        images = [act(sigma, x).terms for x in _modes(basis)]
        field_maps.append([h for (((_, h),),) in images])
    for w in range(9):
        for mon in enumerate_basis(3, w):
            images = {canonical([(level, fields[f - 1]) for level, f in mon])
                      for fields in field_maps}
            least = mon == min(images)
            assert (labels[mon] is not None) == least, mon
            if least:
                assert labels[mon] == structure._label(mon, 8)


#: every S3 path through span_dims, drops included, and the S3 set in the
#: b basis, which is closed in H(3)
_ORBIT_CASES = (
    [pytest.param(S3_GENERATOR_IDS, 8, d, id=f"s3-{d}")
     for d in [None] + [str(g) for g in S3_GENERATOR_IDS]]
    + [pytest.param(S3_DIAGONAL_GENERATOR_IDS, 7, d, id=f"diagonal-{d}")
       for d in [None] + [str(g) for g in S3_DIAGONAL_GENERATOR_IDS]]
    + [pytest.param("b", 6, None, id="s3-in-the-b-basis")])


@pytest.mark.parametrize("ids, max_weight, dropped", _ORBIT_CASES)
def test_orbit_rows_give_the_ranks_of_full_rows(monkeypatch, ids, max_weight,
                                                dropped):
    # span_dims compresses every S3 row to the orbit-least monomials; full
    # rows give the same ranks after the same inserts, and store more terms
    if ids == "b":
        gens = [change_basis(build_generator(g), BETA) for g in S3_GENERATOR_IDS]
    else:
        gens = [g for g in ids if str(g) != dropped]
    ((states, charges, room, top, basis, orbit, mirror), _), = _close_calls(
        monkeypatch, gens, max_weight, "S3")
    assert orbit and mirror is None
    on = _recorded_close(monkeypatch, states, charges, room, top, basis, orbit)
    off = _recorded_close(monkeypatch, states, charges, room, top, basis)
    assert on[0] == off[0]
    assert on[2] == off[2]
    labels = structure._Labels(top, orbit)
    kept = {labels[m] for w in range(top + 1) for m in enumerate_basis(3, w)}
    assert all(kept.issuperset(row) for rows in on[1] for row in rows.values())
    assert (sum(len(r) for rows in on[1] for r in rows.values())
            < sum(len(r) for rows in off[1] for r in rows.values()))


#: the Z3 sets whose closed states tau maps into the span of their
#: translates: the paper's set, and two of its single drops
_MIRRORED = {None, "omega1_0(0)", "omega23_0(0,3)"}

#: the b-basis action table of tau: it fixes b1 and swaps b2 and b3, each
#: with coefficient 1
_TAU = ((1, 0), (3, 0), (2, 0))


@pytest.mark.parametrize("dropped", [None] + [str(g) for g in Z3_GENERATOR_IDS])
def test_charge_mirror_is_on_only_where_the_generators_are_tau_stable(
        monkeypatch, dropped):
    gens = [g for g in Z3_GENERATOR_IDS if str(g) != dropped]
    ((states, *_, orbit, mirror), _), = _close_calls(monkeypatch, gens, 4, "Z3")
    assert orbit == ()
    assert mirror == (_TAU if dropped in _MIRRORED else None)


@pytest.mark.parametrize("dropped, forced, exact", [
    ("omega23_0(0,0)", 612, 618), ("omega333_0(0,0,0)", 880, 730)])
def test_the_mirror_without_its_stability_test_miscounts(monkeypatch, dropped,
                                                         forced, exact):
    # the stability test turns the mirror off for these drops; forced on,
    # the closure at weight 10 misses or invents vectors
    gens = [g for g in Z3_GENERATOR_IDS if str(g) != dropped]
    ((states, charges, room, top, basis, orbit, mirror), _), = _close_calls(
        monkeypatch, gens, 10, "Z3")
    assert mirror is None
    wrong = structure._close(states, charges, room, top, basis, orbit, _TAU)
    assert structure._with_free_boson(wrong)[10] == forced
    assert span_dims(gens, 10, "Z3").dims_spanned[10] == exact


def test_mirror_images_are_interned(monkeypatch):
    # every monomial of a mirror image goes through vertex._shared, so the
    # images hold the memo's own monomial and mode objects
    interned = []

    def spy(mon):
        interned.append(mon)
        return vertex._shared(mon)

    monkeypatch.setattr(structure, "_shared", spy)
    span_dims(Z3_GENERATOR_IDS, 8, "Z3")
    assert interned
    assert all(structure._charge({mon: 1}) < 0 for mon in interned)


def test_labels_are_injective_and_reverse_the_monomial_order():
    top = MAX_SPAN_WEIGHT
    seen = set()
    for w in range(top + 1):
        monomials = sorted(enumerate_basis(3, w))
        for max_weight in {w, top}:
            labels = [structure._label(m, max_weight) for m in monomials]
            assert all(a > b for a, b in zip(labels, labels[1:])), (w, max_weight)
        seen.update(structure._label(m, top) for m in monomials)
        assert len(seen) == sum(len(enumerate_basis(3, v)) for v in range(w + 1))
    # past weight 15 a mode digit 4 * level + field needs 7 bits
    for max_weight in (16, 17):
        monomials = sorted(
            [((level, f),) for level in (max_weight - 1, max_weight)
             for f in (1, 2, 3)]
            + [((max_weight - 1, 3), (1, f)) for f in (1, 2, 3)]
            + [((max_weight - 2, 3), (1, 1), (1, 3)),
               ((max_weight - 2, 1), (2, 2)),
               ((2, 1),) + ((1, 3),) * (max_weight - 2),
               ((1, 1),) * max_weight, ((1, 3),) * max_weight, ()])
        labels = [structure._label(m, max_weight) for m in monomials]
        assert all(a > b for a, b in zip(labels, labels[1:])), max_weight
        top_digit = 4 * max_weight + 3
        assert structure._label(((max_weight, 3),), max_weight) == \
            -(top_digit << 7 * (max_weight - 1))


def test_span_rejects_mixed_bases_and_ranks_before_any_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("a product was formed")
    monkeypatch.setattr(vertex, "_monomial_product", no_product)
    omega = build_generator(S3_GENERATOR_IDS[1])
    with pytest.raises(ValueError, match="basis"):
        span_dims([S3_GENERATOR_IDS[0], change_basis(omega, BETA)], 3, "S3")
    rank2 = FockState(2, "a", {((1, 1), (1, 1)): F(1), ((1, 2), (1, 2)): F(1)})
    with pytest.raises(ValueError, match="rank 2"):
        span_dims([rank2], 3, "S3")


def test_span_rejects_a_mixed_weight_generator_before_any_product(monkeypatch):
    # omega1(0) + omega2(0,0) is invariant but of weights 1 and 2; _close
    # files each product under its largest weight, so weight 1 read 0
    def no_product(*args):
        raise AssertionError("a product was formed")
    monkeypatch.setattr(vertex, "_monomial_product", no_product)
    mixed = build_generator(S3_GENERATOR_IDS[0]) + build_generator(S3_GENERATOR_IDS[1])
    with pytest.raises(ValueError, match="mixed weight"):
        span_dims([mixed], 5, "S3")


@pytest.mark.parametrize("group", ["foo", "S2", "s3", ""])
def test_span_rejects_an_unknown_group_before_any_generator(monkeypatch, group):
    # S2 is in symmetry.GROUPS, so its invariance checks used to run first
    def no_product(*args):
        raise AssertionError("a product was formed")

    def no_generator(*args):
        raise AssertionError("a generator was built")
    monkeypatch.setattr(vertex, "_monomial_product", no_product)
    monkeypatch.setattr(structure, "build_generator", no_generator)
    with pytest.raises(ValueError, match="S3 or Z3"):
        span_dims(S3_GENERATOR_IDS, 4, group)


def test_span_rejects_q_z_coefficients():
    # z * b1(-1) is invariant (b1 is the symmetric combination), but the
    # span is computed over Q
    state = FockState(3, BETA, {((1, 1),): ZETA})
    with pytest.raises(TypeError, match="echelon coefficients must be rational"):
        span_dims([state], 3, "Z3")
