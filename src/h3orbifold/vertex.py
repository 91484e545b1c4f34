"""Vertex-algebra structure on the Fock space: mode products and Virasoro.

The n-th product u_n v is computed in closed form by Wick's theorem (Kac,
*Vertex Algebras for Beginners*, 3.3).  For a monomial
u = x_{f_1}(-m_1) ... x_{f_k}(-m_k) |0> the field is the normally ordered
product

    Y(u, z) = :prod_j d^(m_j - 1) x_{f_j}(z):,   d^(p) = (d/dz)^p / p!,
    d^(m-1) x(z) = sum_k C(-k-1, m-1) x(k) z^(-k-m),

with C the generalized binomial, and u_n v is the coefficient of z^(-n-1) in
Y(u, z) v.  In normal order each annihilator x_f(k), k >= 1, acts on v
itself: it removes a creation mode x_g(-l) of v with l = k and g the pairing
partner of f (g = f in the "a" basis, ``_BETA_PAIR`` in the "b" basis) and
contributes the bracket value l; the zero mode kills v.  So every term comes
from a partial matching sigma of a subset T of the modes of u with modes of
v that carry the partner field:

* a matched mode (m, f) -> (l, g) takes k = l: the factor C(-l-1, m-1) * l
  and the power z^(-l-m);
* an unmatched mode creates, k = -(m + e) with e >= 0 (C(m+e-1, m-1) is 0
  below that): the mode x_f(-(m+e)), the factor C(m+e-1, m-1) and z^e.

The powers meet z^(-n-1) exactly when the unmatched raises e_j sum to the
excess

    E = sum_{j in T} (m_j + l_sigma(j)) - n - 1.

So sigma gives nothing if E < 0, or if T is all of u and E != 0; otherwise
each spread of E over the unmatched modes gives v without the matched modes
and with x_{f_j}(-(m_j + e_j)) added, times

    prod_{j in T} C(-l_sigma(j)-1, m_j-1) l_sigma(j)
      * prod_{j not in T} C(m_j+e_j-1, m_j-1),

an integer.  Every term has weight wt(u) + wt(v) - n - 1, so u_n v = 0 once
n >= wt(u) + wt(v).  The formula is exact over Q / Q(z) and needs no OPE
tables.

The spreads come from a raise table (``_raises``): for a tuple of modes and
an excess, the spreads grouped by their canonical raised monomial, the
coefficients of a group summed, the groups in the order each first occurs.
It is memoised beside the product memo, and ``clear_product_cache`` empties
both.  Every memo value holds the same ints, in the same order, as a loop
over single spreads gives:

* the sum over the spreads of one sigma depends on sigma only through its
  unmatched modes and E, so it is one table entry;
* every spread coefficient is a positive integer, so summing a group is
  exact and no group is zero;
* the output monomial canonical(rest + added) depends only on the multiset
  of its modes, so a group gives one output monomial, distinct groups give
  distinct ones, and each is first met at the same spread as before.

T^k / k! reads the same table with the modes of a monomial and E = k.

The product memo is kept in rows: it maps (basis, u, n) to the dict
{v: value of u_n v} of every stored product with that left monomial and
mode, and a row is made together with its first entry, so none is empty.
This changes only the keys: a lookup reads the row, then v, and a miss
computes the product exactly as with one key (basis, u, n, v) per product,
so the memo holds the same products with identical values.  A cold verify
forms about six products per row, and one row key per (basis, u, n) is
smaller than one 4-tuple key per product.

Every product memo value and raise-table entry is one flat tuple
(mon_1, c_1, mon_2, c_2, ...): the monomials in the order they are first
met, each followed by its nonzero int coefficient; a zero product is the
empty tuple.  Every reader takes the pairs with
``it = iter(x); zip(it, it)``.
Both tables hold one object per distinct monomial and per distinct mode:
each monomial of a memo value or a table entry is interned as it is stored
(``_shared``), in a dict that ``clear_product_cache`` empties too.  Tuples
are immutable, so no caller can change a stored value, and sharing equal
ones, the empty tuple of every zero product included, is invisible to every
caller; it only keeps thousands of equal copies and per-entry dicts out of
memory.

Products, axiom residuals and translations run on integers.  Each state
is converted once to its scaled form (den, re, im) (``_scaled``): den is the
lcm of the denominators of its coefficients, and re and im are the
{monomial: int} dicts of the rational part and the z-part of den * state,
so im is empty for a rational state.  The n-th product is bilinear, so
(du u)_n (dv v) = du dv (u_n v), and its parts are integer sums of memo
values times coefficient products, with z^2 = -1 - z: one product of dicts
for a rational pair, at most four over Q(z) (``_product``).  Likewise the
skew-symmetry residual is bilinear and the Borcherds residual trilinear in
their states, so each is built whole from the scaled states and equals
du dv (dw) times the residual of u, v (w).  T^k / k! maps integer vectors
to integer vectors (``_divided_power``).  Dividing by the product of the
denominators once per output term (``_unscaled``) therefore returns
exactly the state that ``Fraction`` arithmetic per term gives: a
``Fraction`` coefficient where the z-part is zero, else a ``Scalar``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, lcm

from .fock import (_BETA_PAIR, ALPHA, BETA, FockState, Monomial, canonical,
                   monomial_weight)
from .scalars import Scalar

#: product memo in rows: (basis, u, n) -> {v: the flat value of u_n v}
_PRODUCT_CACHE: dict = {}

#: raise table: (modes, excess) -> the merged spreads (``_raises``)
_RAISE_CACHE: dict = {}

#: intern table: the one stored object of each monomial and mode (``_shared``)
_SHARED: dict = {}


def clear_product_cache() -> None:
    """Empty the product memo, the raise table and the intern table."""
    _PRODUCT_CACHE.clear()
    _RAISE_CACHE.clear()
    _SHARED.clear()


def _shared(mon: Monomial) -> Monomial:
    """The stored object equal to mon, built from stored modes."""
    hit = _SHARED.get(mon)
    if hit is None:
        hit = tuple(map(_SHARED.setdefault, mon, mon))
        _SHARED[hit] = hit  # keyed by hit itself, so mon is not kept
    return hit


def _gen_binom(top: int, k: int) -> int:
    """Generalized binomial C(top, k) for integer top (possibly negative)."""
    if k < 0:
        return 0
    if top >= 0:
        return comb(top, k)
    # C(-n, k) = (-1)^k C(n+k-1, k)
    return (-1) ** k * comb(-top + k - 1, k)


def _monomial_product(basis: str, u: Monomial, n: int, v: Monomial) -> tuple:
    """(u-monomial)_n (v-monomial) by Wick's theorem, as the flat tuple
    (mon_1, c_1, mon_2, c_2, ...) of its nonzero int terms.

    Each term is a partial matching of the modes of u with modes of v that
    carry their pairing partner, followed by a spread of the excess E over
    the unmatched modes of u (see the module docstring).  A repeated mode of
    v is a single choice, taken by multiplicity: a mode of u matched to it
    while c copies are still unmatched contributes the factor c, one for
    each copy it could take.  Every coefficient is an integer, so the memo
    holds Python ints; ``nth_product`` applies the state coefficients.  No
    intermediate product is formed, so only the products asked for enter
    the memo.  The terms are summed in a dict and stored flat, in its key
    order (see the module docstring).
    """
    key = (basis, u, n)
    row = _PRODUCT_CACHE.get(key)
    if row is not None:
        hit = row.get(v)
        if hit is not None:
            return hit
    result: dict = {}
    if n < monomial_weight(u) + monomial_weight(v):
        # each mode (m, f) of u stays free (None) or contracts a mode (l, g)
        # of v with g its partner: (mode, its factor, m + l)
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
                # rest and every raised part are canonical already
                rest = tuple(rest)
                it = iter(_raises(tuple(free), excess))
                for raised, c in zip(it, it):
                    mon = (canonical(rest + raised) if rest and raised
                           else rest or raised)
                    result[mon] = result.get(mon, 0) + coeff * c
    flat = _flat(result)
    if row is None:  # a row is made with its first entry, so none is empty
        _PRODUCT_CACHE[key] = {v: flat}
    else:
        row[v] = flat
    return flat


def _flat(terms: dict) -> tuple:
    """(mon_1, c_1, mon_2, c_2, ...): the nonzero entries of a
    {monomial: int} dict in key order, each monomial interned
    (``_shared``); the layout of every memo value and raise entry."""
    flat = []
    for mon, c in terms.items():
        if c:
            flat += _shared(mon), c
    return tuple(flat)


def _raises(modes: Monomial, excess: int) -> tuple:
    """(raised_1, c_1, raised_2, c_2, ...): the spreads of excess over modes
    (``_spread``) grouped by their canonical raised monomial, in the order
    each first occurs, with the coefficients of a group summed; memoised in
    ``_RAISE_CACHE``."""
    key = (modes, excess)
    hit = _RAISE_CACHE.get(key)
    if hit is None:
        merged: dict = {}
        for added, c in _spread(modes, excess):
            raised = canonical(added)
            merged[raised] = merged.get(raised, 0) + c
        hit = _RAISE_CACHE[key] = _flat(merged)
    return hit


def _spread(free: Monomial, excess: int) -> list:
    """[(modes, coefficient)] for every way of raising the levels m of the
    modes (m, f) in free by e >= 0 with sum e = excess; each raise adds the
    factor C(m + e - 1, m - 1)."""
    parts = [((), 1, excess)]
    last = len(free) - 1
    for k, (m, f) in enumerate(free):
        parts = [(modes + ((m + e, f),), c * comb(m + e - 1, m - 1), left - e)
                 for modes, c, left in parts
                 for e in ((left,) if k == last else range(left + 1))]
    return [(modes, c) for modes, c, _ in parts]


def _scaled(state: FockState) -> tuple:
    """(den, re, im): den the lcm of the denominators of state's rational
    and z-parts, re and im the {monomial: int} dicts of the rational and
    z-parts of den * state, without zero entries; im is empty for a
    rational state."""
    parts = [(mon, c.a, c.b) if isinstance(c, Scalar) else (mon, c, 0)
             for mon, c in state.terms.items()]
    den = lcm(*(x.denominator for _, a, b in parts for x in (a, b)))
    re = {mon: a.numerator * (den // a.denominator) for mon, a, _ in parts if a}
    im = {mon: b.numerator * (den // b.denominator) for mon, _, b in parts if b}
    return den, re, im


def _unscaled(rank: int, basis: str, den: int, re: dict, im: dict) -> FockState:
    """The state (re + z im) / den, one division per term: a ``Fraction``
    where the z-part is zero, else a ``Scalar``."""
    out = FockState(rank, basis)
    terms = out.terms
    for mon, a in re.items():
        b = im.get(mon)
        terms[mon] = (Scalar(Fraction(a, den), Fraction(b, den)) if b
                      else Fraction(a, den))
    for mon, b in im.items():
        if mon not in re:
            terms[mon] = Scalar(0, Fraction(b, den))
    return out


def _add_into(out: dict, pairs, k: int) -> None:
    """out += k * x on a {monomial: int} dict, for k != 0 and x given by
    its (monomial, int) pairs without zero entries: a dict's ``items()`` or
    a memo value's ``zip(it, it)``; entries of out that become zero are
    dropped."""
    for mon, c in pairs:
        val = out.get(mon, 0) + k * c
        if val:
            out[mon] = val
        else:
            del out[mon]


def _accumulate(out: dict, basis: str, x: dict, n: int, y: dict, k: int) -> None:
    """out += k * x_n y on {monomial: int} dicts, reading each memo value's
    pairs in place; entries of out that become zero are dropped."""
    for mu, cu in x.items():
        kcu = k * cu
        for mv, cv in y.items():
            flat = _monomial_product(basis, mu, n, mv)
            if flat:  # zero products, about half of a verify's, add nothing
                it = iter(flat)
                _add_into(out, zip(it, it), kcu * cv)


def _product(basis: str, x: tuple, n: int, y: tuple) -> tuple:
    """(re, im) of x_n y for x = (re, im) and y = (re, im) over Z[z]: the
    n-th product is bilinear, and z^2 = -1 - z."""
    (xr, xi), (yr, yi) = x, y
    re: dict = {}
    im: dict = {}
    _accumulate(re, basis, xr, n, yr, 1)
    if xi or yi:
        _accumulate(im, basis, xr, n, yi, 1)
        _accumulate(im, basis, xi, n, yr, 1)
        if xi and yi:
            zz: dict = {}
            _accumulate(zz, basis, xi, n, yi, -1)
            _add_into(re, zz.items(), 1)
            _add_into(im, zz.items(), 1)
    return re, im


def nth_product(u: FockState, n: int, v: FockState) -> FockState:
    """The mode product u_n v; exact, any integer n."""
    u._check_compatible(v)
    du, *xu = _scaled(u)
    dv, *xv = _scaled(v)
    return _unscaled(u.rank, u.basis, du * dv, *_product(u.basis, xu, n, xv))


def _divided_power(x: dict, k: int) -> dict:
    """T^k / k! on a {monomial: int} dict.

    T is the derivation x_f(-m) -> m x_f(-m-1), so T^k / k! spreads k over
    the modes of each monomial, a raise e of a mode at level m adding the
    factor C(m + e - 1, m - 1) (``_raises``): an integer map.  The vacuum
    has no modes to raise, and T^k |0> = 0 for k >= 1.
    """
    out: dict = {}
    for mon, c in x.items():
        if mon or not k:
            it = iter(_raises(mon, k))
            _add_into(out, zip(it, it), c)
    return out


def translate_power(v: FockState, k: int) -> FockState:
    """T^k(v) / k!, i.e. the state v_{-1-k} |0>, in closed form."""
    den, re, im = _scaled(v)
    return _unscaled(v.rank, v.basis, den,
                     _divided_power(re, k), _divided_power(im, k))


def translate(v: FockState) -> FockState:
    """Translation operator: the derivation x_i(-m) -> m * x_i(-m-1)."""
    return translate_power(v, 1)


def conformal_vector(rank: int, basis: str = ALPHA) -> FockState:
    """omega = (1/2) sum_i x_i(-1) x_pair(i)(-1) |0> for the basis pairing."""
    out = FockState(rank, basis)
    for i in range(1, rank + 1):
        pair = _BETA_PAIR[i] if basis == BETA else i
        out._add_term(canonical(((1, i), (1, pair))), Fraction(1, 2))
    return out


def virasoro_mode(k: int, v: FockState) -> FockState:
    """L(k) v, realized as the (k+1)-st product with the conformal vector."""
    return nth_product(conformal_vector(v.rank, v.basis), k + 1, v)


def is_primary(v: FockState) -> bool:
    """True iff v is homogeneous and killed by L(1) and L(2).

    L(1) and L(2) generate all positive Virasoro modes via commutators, so
    this is the full primary condition.
    """
    if v.weight() == "mixed":
        raise ValueError("primality is defined for homogeneous states")
    return virasoro_mode(1, v).is_zero() and virasoro_mode(2, v).is_zero()


def check_skew_symmetry(u: FockState, v: FockState, n: int) -> FockState:
    """Residual of u_n v = sum_j (-1)^(n+j+1) T^j(v_{n+j} u) / j!.

    Returns the difference; a correct product makes it the zero state.  The
    sum runs over j < wt(u) + wt(v) - n, as v_{n+j} u vanishes once
    n + j >= wt(u) + wt(v) (see the module docstring).

    The residual is bilinear in (u, v), so it is built once from the scaled
    forms du * u and dv * v (see ``_scaled``) in {monomial: int} dicts, and
    du * dv * residual(u, v) is divided by du * dv once per term at the end.
    """
    u._check_compatible(v)
    basis = u.basis
    du, *xu = _scaled(u)
    dv, *xv = _scaled(v)
    re, im = _product(basis, xu, n, xv)
    for j in range(max(0, u.max_weight() + v.max_weight() - n)):
        tr, ti = _product(basis, xv, n + j, xu)
        sign = -1 if (n + j) % 2 else 1
        _add_into(re, _divided_power(tr, j).items(), sign)
        _add_into(im, _divided_power(ti, j).items(), sign)
    return _unscaled(u.rank, basis, du * dv, re, im)


def check_borcherds(u: FockState, v: FockState, w: FockState,
                    p: int, q: int, r: int) -> FockState:
    """Residual of the Borcherds identity at mode triple (p, q, r).

    sum_i C(p,i) (u_{r+i} v)_{p+q-i} w
      - sum_i (-1)^i C(r,i) [ u_{p+r-i} (v_{q+i} w)
                              - (-1)^r v_{q+r-i} (u_{p+i} w) ]

    Every term is trilinear in (u, v, w), so the residual is built once from
    the scaled forms du * u, dv * v and dw * w (see ``_scaled``) in
    {monomial: int} dicts, and du * dv * dw * residual(u, v, w) is divided by
    du * dv * dw once per term at the end.
    """
    u._check_compatible(v)
    v._check_compatible(w)
    basis = u.basis
    wt_u = u.max_weight()
    wt_v = v.max_weight()
    wt_w = w.max_weight()
    du, *xu = _scaled(u)
    dv, *xv = _scaled(v)
    dw, *xw = _scaled(w)
    re: dict = {}
    im: dict = {}

    def add(x, n, y, k):
        tr, ti = _product(basis, x, n, y)
        _add_into(re, tr.items(), k)
        _add_into(im, ti.items(), k)

    # u_{r+i} v vanishes once r + i >= wt_u + wt_v, and C(p, i) once
    # i > p >= 0 (never for p < 0); likewise below with v_{q+i} w, u_{p+i} w
    # and C(r, i)
    top = wt_u + wt_v - r
    for i in range(min(top, p + 1) if p >= 0 else top):
        add(_product(basis, xu, r + i, xv), p + q - i, xw, _gen_binom(p, i))
    top = max(wt_v + wt_w - q, wt_u + wt_w - p)
    for i in range(min(top, r + 1) if r >= 0 else top):
        c = _gen_binom(r, i)
        s = -c if i % 2 else c
        add(xu, p + r - i, _product(basis, xv, q + i, xw), -s)
        add(xv, q + r - i, _product(basis, xu, p + i, xw), -s if r % 2 else s)
    return _unscaled(u.rank, basis, du * dv * dw, re, im)
