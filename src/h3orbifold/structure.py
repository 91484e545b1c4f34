"""Core reduction machinery: the quintic/sextic decoupling expressions, their
decompositions into lower generators, the determinant criterion for the
induction step, and exact strong-span computations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .classical import RELATION_TERMS, relation_arity
from .fock import BETA, FockState
from .linalg import Echelon, SolverBasis, _integral, _primitive, det_bareiss
from .qseries import ORBIFOLD_GROUPS, _euler_product, orbifold_character
from .symmetry import (GROUPS, GeneratorId, _action_table, _moved,
                       build_generator, gen, is_invariant)
from .vertex import (_accumulate, _add_into, _divided_power, _shared,
                     _unscaled)

#: largest weight span_dims (and ``h3orb span``) accepts
MAX_SPAN_WEIGHT = 12


def _nested_product(forms) -> dict:
    """x_1 (-1) (x_2 (-1) ... x_k) for ``b``-basis {monomial: int} dicts,
    a fold of ``vertex._accumulate``; it only reads the forms, and a single
    form comes back as itself."""
    out = forms[-1]
    for x in reversed(forms[:-1]):
        prod: dict = {}
        _accumulate(prod, BETA, x, -1, out, 1)
        out = prod
    return out


_D_FAMILY = {"D6_1": "D6C1", "D6_2": "D6C2", "D5": "D5C"}


@lru_cache(maxsize=None)
def _diagonal_generator(k: int, indices: tuple) -> dict:
    """omega{k}_0(indices) as a {monomial: int} dict of the state's own
    integer coefficients (omega2_0(a, a) has 2), built once per (k, indices).
    Every caller shares the dict, so none may change it; ``gen`` still
    builds a fresh state."""
    state = gen(f"omega{k}_0", *indices)
    return {mon: int(c) for mon, c in state.terms.items()}


def build_D(rel: str, multi_index) -> FockState:
    """The decoupling expressions built from (-1)-products of the diagonal
    generators; same term structure as the classical relations.

    Each term's nested product is an integer dict (``_nested_product`` of
    the ``_diagonal_generator`` dicts, which it only reads).  The terms are
    summed over the lcm of their coefficients' denominators, divided once
    per monomial, into a new state that holds no dict of the table."""
    classical_name = _D_FAMILY.get(rel)
    if classical_name is None:
        raise ValueError(f"unknown expression family {rel!r}")
    arity = relation_arity(classical_name)
    idx = tuple(multi_index)
    if len(idx) != arity:
        raise ValueError(f"{rel} takes {arity} indices, got {len(idx)}")
    if any(i < 0 for i in idx):
        raise ValueError("indices must be >= 0")
    terms = RELATION_TERMS[classical_name]
    den = lcm(*(Fraction(c).denominator for c, _ in terms))
    out: dict = {}
    for coeff, factors in terms:
        forms = [_diagonal_generator(k, tuple(idx[p] for p in pos))
                 for k, pos in factors]
        _add_into(out, _nested_product(forms).items(), int(coeff * den))
    return _unscaled(3, BETA, den, out, {})


# -- decomposition reports ----------------------------------------------------


class DecompositionReport(NamedTuple):
    """Each report gets its own dicts: a default dict would be shared."""
    expression: str
    multi_index: tuple
    ok: bool
    quartic: dict              # ((a,b),(c,d)) -> mu
    quadratic: dict            # (a,b) -> mu
    cubic: dict                # (a,b,c) -> mu
    residual_monomials: int = 0


def _pairs_summing(total: int):
    return [(a, total - a) for a in range(total // 2 + 1)]


def check_decomposition(rel: str, multi_index) -> DecompositionReport:
    """Verify the decoupling shape of a D-expression.

    For the sextic expressions the state must decompose over quadratic
    generators and (-1)-products of two of them (no cubic-in-quadratic or
    quadratic-in-cubic terms).  For the quintic expression the state must be
    a plain linear combination of cubic generators.  The sextic solve runs
    over the ``_diagonal_generator`` dicts, the integer states themselves,
    and their (-1)-products (``_nested_product``), inserted as they are.
    """
    state = build_D(rel, multi_index)
    idx = tuple(multi_index)
    total = sum(idx)

    if rel == "D5":
        # six-mode terms must already cancel; the rest reads off directly
        residual = sum(len(mon) != 3 for mon in state.terms)
        if residual:
            return DecompositionReport(rel, idx, False, {}, {}, {}, residual)
        try:
            mu = cubic_family_coefficients(state)
        except ValueError:
            return DecompositionReport(rel, idx, False, {}, {}, {})
        # listed by largest index descending, then the next, as the
        # pinned reports print them
        cubic = {t: mu[t] for t in sorted(mu, key=lambda t: t[::-1], reverse=True)}
        return DecompositionReport(rel, idx, True, {}, {}, cubic)

    quadratic = _pairs_summing(total + 4)
    pairs = [(a, b) for a in range(total + 3) for b in range(a, total + 3)]
    quartic = [(p, q) for i, p in enumerate(pairs) for q in pairs[i:]
               if sum(p) + sum(q) == total + 2]
    sb = SolverBasis()
    for p in quadratic:
        sb.insert(_diagonal_generator(2, p))
    for p, q in quartic:
        sb.insert(_nested_product([_diagonal_generator(2, p),
                                   _diagonal_generator(2, q)]))
    coords = sb.solve(state.terms)
    if coords is None:
        return DecompositionReport(rel, idx, False, {}, {}, {},
                                   sum(len(mon) == 6 for mon in state.terms))
    n = len(quadratic)
    quartic_mu = {quartic[k - n]: v for k, v in coords.items() if k >= n}
    quadratic_mu = {quadratic[k]: v for k, v in coords.items() if k < n}
    return DecompositionReport(rel, idx, True, quartic_mu, quadratic_mu, {})


# -- determinant criterion ----------------------------------------------------

DET_A_PATTERNS = (
    lambda a: (0, 0, 0, 1, a - 3),
    lambda a: (0, 0, 0, 2, a - 4),
    lambda a: (0, 0, 1, 1, a - 4),
    lambda a: (0, 0, 0, 3, a - 5),
    lambda a: (0, 0, 1, 2, a - 5),
    lambda a: (0, 1, 1, 1, a - 5),
)

#: closed form for the determinant at even arguments
DET_A_CLOSED_FORM_FACTORS = (5331, -70325, 314669, -613567, 97384, 1614156, -1835568)


def det_A_closed_form(a: int) -> Fraction:
    poly = Fraction(0)
    for c in DET_A_CLOSED_FORM_FACTORS:
        poly = poly * a + c
    return (Fraction(1, 6) * (a - 4) ** 2 * (a - 3) * (a - 1) * (a + 2) * poly)


def cubic_family_coefficients(state: FockState) -> dict:
    """Unique expansion of a pure-cubic diagonal-basis state over the cubic
    generators: dict (u <= v <= w) -> coefficient.

    Distinct index multisets have disjoint monomial support, so the expansion
    is canonical; the two cube families must carry identical coefficients.
    """
    mu2: dict = {}
    mu3: dict = {}
    for mon, c in state.terms.items():
        if len(mon) != 3:
            raise ValueError("state is not a pure cubic combination")
        fields = {f for _, f in mon}
        key = tuple(sorted(lv - 1 for lv, _ in mon))
        if fields == {2}:
            mu2[key] = c
        elif fields == {3}:
            mu3[key] = c
        else:
            raise ValueError(f"monomial {mon} mixes the two cube families")
    if mu2 != mu3:
        raise ValueError("cube families carry different coefficients")
    return mu2


def det_A_matrix(a: int) -> list:
    """The 6x6 coefficient matrix of the six quintic expressions against the
    six cubic generators with labels (0, k, a-k), k = 0..5.

    Entry (i, j) is the canonical cubic-expansion coefficient of the label
    (0, i, a-i) in the j-th expression.  When two labels name the same state
    (a = 6, 8) the corresponding rows coincide.
    """
    matrix = [[Fraction(0)] * 6 for _ in range(6)]
    for j, pattern in enumerate(DET_A_PATTERNS):
        mu = cubic_family_coefficients(build_D("D5", pattern(a)))
        for i in range(6):
            matrix[i][j] = mu.get(tuple(sorted((0, i, a - i))), Fraction(0))
    return matrix


def det_A(a: int) -> Fraction:
    """Determinant of the induction matrix at even a >= 6.

    The coefficient extraction is the canonical cubic expansion; coefficients
    of a spanning-but-dependent translation-image family are path-dependent,
    so this is the one reproducible choice.  Its even-argument determinant
    carries exactly the singular factors (a-4)^2 (a-3) (a-1) (a+2) of the
    quoted closed form; the residual degree-6 factor depends on the
    elimination path and does not match the quoted one (see the relation
    catalog notes and tests).
    """
    if a % 2 != 0:
        raise ValueError("the determinant criterion is stated for even a only")
    if a < 6:
        raise ValueError("argument must be >= 6")
    return det_bareiss(det_A_matrix(a))


# -- strong span --------------------------------------------------------------


class SpanReport(NamedTuple):
    generators: list
    group: str
    max_weight: int
    dims_spanned: dict
    dims_target: dict
    matched: dict

    @property
    def all_matched(self) -> bool:
        return all(self.matched.values())

    def first_deficit(self):
        for w in sorted(self.matched):
            if not self.matched[w]:
                return w
        return None


def _target_dims(group: str, max_weight: int) -> dict:
    return dict(enumerate(int(c) for c in orbifold_character(group, max_weight)
                          .integer_slice(max_weight + 1)))


def _label(mon, max_weight: int) -> int:
    """Integer label of a monomial of weight at most max_weight.

    Each mode (level, field) is the digit 4 * level + field, written in
    width = (4 * max_weight + 3).bit_length() bits (at most 6 through
    weight 15), which hold every digit of a level up to max_weight and a
    field 1..3; the digits order modes as tuples do.  The digits, padded on
    the right with zeros to max_weight of them (a monomial has at most as
    many modes as its weight), make a number, and the label is that number
    negated.  No digit is zero, so the padding fixes the number of modes
    and labels are injective; a zero pad sorts below every digit, as a
    tuple prefix sorts first, so labels strictly reverse the tuple order.
    """
    width = (4 * max_weight + 3).bit_length()
    code = 0
    for level, field in mon:
        code = (code << width) | (4 * level + field)
    return -(code << width * (max_weight - len(mon)))


class _Labels(dict):
    """Memo monomial -> ``_label(monomial, max_weight)``, or None for a
    monomial that is not <= its image (``symmetry._moved``) under each
    action table of ``orbit``."""

    def __init__(self, max_weight: int, orbit: tuple):
        super().__init__()
        self.max_weight = max_weight
        self.orbit = orbit

    def __missing__(self, mon):
        least = all(_moved(table, mon)[0] >= mon for table in self.orbit)
        code = self[mon] = _label(mon, self.max_weight) if least else None
        return code


def _close(states, charges, room: dict, max_weight: int, basis: str,
           orbit: tuple = (), mirror: tuple = None) -> dict:
    """Ranks per weight, up to max_weight, of the strong span of the states:
    the closure of the vacuum under all their negative modes.

    It runs weight by weight, w = 1, ..., max_weight, with one ``Echelon``
    that lives only for its weight.  The candidates at w are the products
    s_n x of a state s of weight ws and a vector x accepted at a weight
    wx < w, n = ws + wx - w - 1 <= -1; a product that enlarges the span is
    accepted and tagged (i, n), i the index of s, and the vacuum (weight 0)
    carries (len(states), 0).  The candidates span weight w, so the ranks
    are exact for every set of states.  That part of the span is spanned by
    the s_n y, y in the span of weight w - ws + n + 1 <= w - ws.  A state
    of weight 0 is c|0>, whose only nonzero negative mode is c times the
    identity and adds nothing, so y lies below weight w, where the accepted
    vectors span, by induction.

    The candidates that extend an ordered generator monomial, i < i2, or
    i == i2 and n <= n2 for x tagged (i2, n2), are tried first, then the
    rest.  Ordered monomials span a strongly generated vertex algebra
    (De Sole-Kac, CMP 2006), so on a generating set the first ones tend to
    fill each grade of the room below before any other pair is formed (on
    the paper's sets none is), and the rest are skipped unformed.  The
    order decides which products are formed and accepted, never the ranks.

    Each state is homogeneous in a charge that adds under every product,
    ``charges[i]`` that of ``states[i]``, so s_n x lies in the grade
    (w, q(s) + q(x)), known before it is formed.  ``room`` maps each grade
    to the dimension of a space that the span's part in that grade lies in
    (a grade left out has room 0).  Once the rows accepted in a grade
    number its room, they are independent vectors of that space and span
    it, and ``insert`` would reject every later product in the grade; such
    a product is skipped unformed.  So the closure accepts the same rows in
    the same order and gives the same ranks as with rooms that never fill.

    ``orbit`` holds action tables p (``symmetry._action_table``), each of a
    group element that maps every monomial m to the monomial p(m)
    (``symmetry._moved``) with coefficient 1, and that, with the identity,
    form a group H; the caller has checked that every state is
    H-invariant.  Then so is every vector formed, as H acts
    by automorphisms, and an invariant vector v = sum c_m m has
    c_(p(m)) = c_m: it is constant on each H-orbit of monomials.  Keeping
    only the coordinate of each orbit's least monomial, the one <= all its
    images, is a linear map that is injective on H-invariant vectors
    (Sturmfels, *Algorithms in Invariant Theory*, ch. 2), so it changes no
    rank and no insert's verdict.  ``_Labels`` gives the other monomials
    the label None, which is dropped from each echelon row; the accepted
    vectors keep all their terms for later products.  With no orbit tables
    no label is None.

    ``mirror`` is None or the action table of an automorphism tau that maps
    every monomial to one monomial with coefficient 1 (``symmetry._moved``)
    and the charge q to -q.  The caller turns it on only when, for every
    state s, tau(s) lies in the span of the T^j s' / j! over the states s' with
    j = wt(s) - wt(s') >= 0.  Then tau(s)_n, n <= -1, is a combination of
    the (T^j s' / j!)_n = (-1)^j C(n, j) s'_(n-j), negative modes of the
    states, so tau maps every s_n1 ... s_nk |0> into the span C, and, being
    injective and graded, maps C_(w, q) onto C_(w, -q).  (That tau(s) lies
    in C would not do: C need not be closed under the modes of its
    composite vectors.)  So the closure forms no candidate of charge below
    0, and after each weight it counts tau(x) for every x accepted there
    with q > 0, and appends it, interned (``_shared``) and tagged as x, as
    a vector of charge -q unless no later weight reads it.  By
    induction the accepted vectors below w span every C_(w', q'), so the
    candidates of charge q >= 0 span C_(w, q); the images of the accepted
    vectors of charge -q span C_(w, q) for q < 0, are independent, and lie
    in grades apart from every other row, so each adds 1 to the rank.

    The closure runs on integers only, and this changes no rank.  Each state
    is scaled once to a primitive integer vector by the lcm of its
    denominators (a Q(z) coefficient raises TypeError), and each product is
    summed as a dict {monomial: int} from the integer memo of
    ``_monomial_product``, whose flat (monomial, int, ...) tuples
    ``vertex._accumulate`` reads in place.  Scaling a state by a
    nonzero rational scales every product formed from it, and every vector
    formed later from those, by a nonzero rational, so each product spans
    the same line as in the rational closure.  Each product enters the
    echelon keyed by ``_label``, an injective relabelling of the coordinates
    and so a linear isomorphism.  Hence every ``insert`` accepts exactly the
    products that the rational, monomial-keyed closure accepts, and the
    products formed and the rank at each weight are the same.  ``Echelon``
    pivots on the largest label, which is the smallest monomial of a row.
    Rank does not depend on the pivot order; the size of intermediate
    remainders does (Bareiss, Math. Comp. 1968), and this order keeps them
    far smaller here than the largest-monomial one.
    """
    gens = []
    for s in states:
        ints = _integral(s.terms)[1]
        gens.append(_primitive(ints) if ints else ints)
    weights = [s.max_weight() for s in states]
    # a vector of weight wx meets a state of weight ws at weights >= wx + ws
    # and > wx only
    reach = max(1, min(weights, default=1))
    room = {g: d for g, d in room.items() if mirror is None or g[1] >= 0}
    labels = _Labels(max_weight, orbit)
    accepted = [({(): 1}, 0, 0, len(gens), 0)]   # (x, wx, qx, i2, n2)
    ranks = {0: 1}
    for w in range(1, max_weight + 1):
        early, late = [], []
        for i, ws in enumerate(weights):
            for x, wx, qx, i2, n2 in accepted:   # in order of weight
                n = ws + wx - w - 1
                if n > -1:
                    break
                ordered = i < i2 or i == i2 and n <= n2
                (early if ordered else late).append((i, n, x, qx))
        echelon = Echelon()
        fresh = len(accepted)
        for i, n, x, qx in early + late:
            q = charges[i] + qx
            if not room.get((w, q)):
                continue
            prod: dict = {}
            _accumulate(prod, basis, gens[i], n, x, 1)
            if not prod:
                continue
            row = {labels[mon]: c for mon, c in prod.items()}
            row.pop(None, None)
            if echelon.insert(row):
                accepted.append((prod, w, q, i, n))
                room[w, q] -= 1
        ranks[w] = echelon.rank
        if mirror is not None:
            images = [(x, q, i, n) for x, _, q, i, n in accepted[fresh:] if q > 0]
            ranks[w] += len(images)
            if w + reach <= max_weight:   # else no later candidate reads them
                accepted += [({_shared(_moved(mirror, mon)[0]): c
                               for mon, c in x.items()}, w, -q, i, n)
                             for x, q, i, n in images]
    return ranks


def _charge(terms: dict):
    """The charge, b2 modes minus b3 modes, shared by every monomial of
    terms (0 for no terms); None if a monomial has a mode of field 1 or two
    monomials differ in charge."""
    charges = set()
    for mon in terms:
        if any(f == 1 for _, f in mon):
            return None
        charges.add(sum(1 if f == 2 else -1 for _, f in mon))
    if len(charges) > 1:
        return None
    return charges.pop() if charges else 0


@lru_cache(maxsize=None)
def _z3_block_dims(max_weight: int) -> dict:
    """{(w, q): dim H(2)^Z3 in weight w and charge q} for w <= max_weight,
    the blocks of dimension 0 left out.  The callers share the dict, so
    none may change it.

    Z3 acts diagonally on the ``b`` basis (``symmetry._action_table``,
    whose 3-cycles have the entries (1, 0), (2, +-1), (3, -+1)): they scale
    b2 by z^(+-1) and b3 by z^(-+1) and fix b1.  So a
    field-1-free monomial of charge q has eigenvalue z^(+-q), the
    invariants of a block are spanned by its monomials when q = 0 mod 3 and
    are 0 otherwise, and their number is
    sum_(w2) sum_(c2 - c3 = q) p(w2, c2) p(w - w2, c3), p(n, c) the
    partitions of n into exactly c parts: the b2 modes form a partition of
    w2 into c2 parts, the b3 modes one of w - w2 into c3 parts.
    """
    # parts[n][c] = p(n, c) = p(n - 1, c - 1) + p(n - c, c)
    parts = [[1] + [0] * max_weight]
    for n in range(1, max_weight + 1):
        parts.append([0] + [parts[n - 1][c - 1] + parts[n - c][c]
                            for c in range(1, n + 1)] + [0] * (max_weight - n))
    dims: dict = {}
    for w in range(max_weight + 1):
        for w2 in range(w + 1):
            for c2 in range(w2 + 1):
                for c3 in range(w - w2 + 1):
                    n = parts[w2][c2] * parts[w - w2][c3]
                    if n and (c2 - c3) % 3 == 0:
                        key = (w, c2 - c3)
                        dims[key] = dims.get(key, 0) + n
    return dims


#: the monomial b1(-1)
_B1 = ((1, 1),)


def _field1_free_rest(states, basis: str):
    """The states other than the rational multiples of b1(-1), if the basis
    is ``b``, at least one state is such a multiple and no other state has
    a mode of field 1; else None.  See ``span_dims``."""
    if basis != BETA:
        return None
    rest = [s for s in states if s.terms.keys() != {_B1}
            or not isinstance(s.terms[_B1], (int, Fraction))]
    if len(rest) == len(states) or any(f == 1 for s in rest
                                       for mon in s.terms for _, f in mon):
        return None
    return rest


def _with_free_boson(dims: dict, remove: bool = False) -> dict:
    """The graded dims of H(1) (x) C' from those of C' (``dims``): dims
    times prod_{n>=1} (1 - q^n)^(-1), whose coefficients are the partition
    numbers p(k).  With ``remove``, the inverse: dims times Euler's
    pentagonal series prod_{n>=1} (1 - q^n).  Both rows are the memoised
    rows of ``qseries._euler_product``."""
    top = len(dims) - 1
    row = (_euler_product(1, top, (), tuple(range(1, top + 1))) if remove
           else _euler_product(1, top, (1,)))
    return {w: sum(row[k] * dims[w - k] for k in range(w + 1)) for w in dims}


def _orbit_maps(group: str, basis: str) -> tuple:
    """The ``_action_table`` of each element of the group that permutes the
    monomials of the basis with coefficient 1 (every exponent of its table
    is 0) and is not the identity: every other S3 element in the ``a``
    basis, the transposition that fixes field 1 in the ``b`` basis, none of
    Z3 there (``_close``'s ``orbit``)."""
    tables = (_action_table(sigma.images, basis) for sigma in GROUPS[group]
              if sigma.images != (1, 2, 3))
    return tuple(t for t in tables if not any(k for _, k in t))


def _charge_mirror(states) -> tuple:
    """The action table of tau, the one S3 element other than the identity
    that permutes ``b``-basis monomials with coefficient 1 (it fixes field 1
    and is not in Z3), if for every state s tau(s) lies in the span of the
    T^j s' / j! over the states s' with j = wt(s) - wt(s') >= 0; else None
    (``_close``'s ``mirror``)."""
    (tau,) = _orbit_maps("S3", BETA)
    forms = [(s.max_weight(), _integral(s.terms)[1]) for s in states]
    for ws, x in forms:
        below = Echelon()
        for wt, y in forms:
            if wt <= ws:
                below.insert(_divided_power(y, ws - wt))
        if below.reduce({_moved(tau, mon)[0]: c for mon, c in x.items()}):
            return None
    return tau


def span_dims(generators, max_weight: int, group: str = "S3") -> SpanReport:
    """Graded dimensions of the strong span of the given generators.

    The strong span C is the closure of the vacuum under all negative modes
    u_n (n <= -1) of the generators, computed weight by weight with exact
    rank bookkeeping (``_close``).  Every generator must be homogeneous
    (``_close`` files s_n x under the weight ws + wx - n - 1) and invariant
    under the group.  G acts by automorphisms, so C lies in the invariants
    V^G, whose dimensions, from Burnside, are the targets.

    The closure runs in the rank-2 factor when the generating set splits
    off the free boson b1: the basis is ``b``, at least one generator is a
    nonzero rational multiple of b1(-1), and no other generator S' has a
    mode of field 1.  In the ``b`` basis field 1 pairs only with itself, so
    H(3) = H(1) (x) H(2), H(1) built by the modes of b1 and H(2) by those of
    b2 and b3.  The modes of b1 have no contraction with those of a
    field-1-free state, so they commute with the modes of S', and b1(n),
    n >= 0, kills every field-1-free vector.  Hence C = H(1) (x) C', C' the
    strong span of S' alone, and dim C_w = sum_k p(k) dim C'_(w-k), p the
    partition numbers (``_with_free_boson``).  G fixes b1 and maps
    H(2) to itself, so V^G = H(1) (x) H(2)^G, and the rank-2 targets
    dim H(2)^G_w are the targets times prod_{n>=1} (1 - q^n)
    (``_with_free_boson`` with ``remove``).  C' lies in
    H(2)^G.  Since p(0) = 1, C = V^G up to max_weight exactly when
    C' = H(2)^G, and the dims, and so the report, are those of the closure
    in H(3).  Any other generating set (the ``a`` basis, no multiple of
    b1(-1), a Q(z) multiple of it, another generator with a field-1 mode)
    is closed in H(3).

    The closure skips the products that land in a full grade of one room
    (``_close``), built here.  For Z3 in the ``b`` basis, when every state
    closed (S', or all of them if none is split off) has no mode of field 1
    and a single charge q, b2 modes minus b3 modes (``_charge``), the grades
    are (weight, charge).  In the ``b`` basis b2 pairs only with b3 and b1
    with itself, so each contraction removes one b2 and one b3 mode, or two
    b1 modes, and raised modes keep their field: q adds under every mode
    product, and the closure lies in H(2).  It lies in the invariants too,
    so its block (w, q) lies in H(2)^Z3_(w,q), whose dimension
    ``_z3_block_dims`` counts.  Every other set gets charge 0 on every
    state, and its room at weight w is the goal that the closed span lies
    under: the target, or the rank-2 target after the split.
    """
    if group not in ORBIFOLD_GROUPS:
        raise ValueError(f"unknown group {group!r} (use S3 or Z3)")
    if not 0 <= max_weight <= MAX_SPAN_WEIGHT:
        raise ValueError(f"max weight {max_weight} outside 0..{MAX_SPAN_WEIGHT}")
    states = []
    names = []
    for g_ in generators:
        if isinstance(g_, GeneratorId):
            names.append(str(g_))
            g_ = build_generator(g_)
        elif isinstance(g_, FockState):
            names.append(str(g_))
        else:
            raise TypeError(f"generator {g_!r} is neither id nor state")
        states.append(g_)
    basis = states[0].basis if states else "a"
    for name, s in zip(names, states):
        if s.rank != 3 or s.basis != basis:
            raise ValueError(f"generator {name} has rank {s.rank} and basis "
                             f"{s.basis!r}, not rank 3 and basis {basis!r}")
        if s.weight() == "mixed":
            raise ValueError(f"generator {name} has mixed weight")
    for name, s in zip(names, states):
        if not is_invariant(group, s):
            raise ValueError(f"generator {name} is not {group}-invariant")

    target = _target_dims(group, max_weight)
    rest = _field1_free_rest(states, basis)
    closed, goal = ((states, target) if rest is None
                    else (rest, _with_free_boson(target, remove=True)))
    charges = [_charge(s.terms) for s in closed]
    mirror = None
    if group == "Z3" and basis == BETA and None not in charges:
        room = _z3_block_dims(max_weight)
        mirror = _charge_mirror(closed)
    else:
        charges = [0] * len(closed)
        room = {(w, 0): d for w, d in goal.items()}
    dims = _close(closed, charges, room, max_weight, basis,
                  _orbit_maps(group, basis), mirror)
    if rest is not None:
        dims = _with_free_boson(dims)
    matched = {w: dims[w] == target[w] for w in range(max_weight + 1)}
    return SpanReport(names, group, max_weight, dims, target, matched)


S3_GENERATOR_IDS = [
    GeneratorId("omega1", (0,)),
    GeneratorId("omega2", (0, 0)),
    GeneratorId("omega2", (0, 2)),
    GeneratorId("omega2", (0, 4)),
    GeneratorId("omega3", (0, 0, 0)),
    GeneratorId("omega3", (0, 0, 2)),
    GeneratorId("omega3", (0, 1, 2)),
]

#: the S3 generating type (1, 2, 3, 4, 5, 6, 6) in the diagonal basis: b1
#: and field-1-free states, so ``span_dims`` runs in the rank-2 factor
S3_DIAGONAL_GENERATOR_IDS = [GeneratorId(g.family + "_0", g.indices)
                             for g in S3_GENERATOR_IDS]

Z3_GENERATOR_IDS = [
    GeneratorId("omega1_0", (0,)),
    GeneratorId("omega23_0", (0, 0)),
    GeneratorId("omega23_0", (0, 1)),
    GeneratorId("omega23_0", (0, 2)),
    GeneratorId("omega23_0", (0, 3)),
    GeneratorId("omega222_0", (0, 0, 0)),
    GeneratorId("omega222_0", (0, 0, 2)),
    GeneratorId("omega333_0", (0, 0, 0)),
    GeneratorId("omega333_0", (0, 0, 2)),
]
