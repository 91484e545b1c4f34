"""Vertex-algebra structure on the Fock space: mode products and Virasoro.

The n-th product u_n v is computed by the free-field recursion.  Writing
u = x_i(-m) u' with m >= 1 (any creation mode of u will do, they commute),
the field of u is the normally ordered product of the (m-1)-st divided
derivative of x_i(z) with the field of u', which gives

    u_n v = sum_{k<0} C(-k-1, m-1) x_i(k) (u'_{n-k-m} v)
          + sum_{k>=0} C(-k-1, m-1) u'_{n-k-m} (x_i(k) v),

with C the generalized binomial and base case 1_n v = delta_{n,-1} v.  Both
sums are finite: annihilators above the weight of v act as zero, and
u'_j v = 0 once j exceeds wt(u') + wt(v) - 1.  On homogeneous inputs
wt(u_n v) = wt(u) + wt(v) - n - 1.  The recursion is exact over Q / Q(z)
and needs no OPE tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .fock import (_BETA_PAIR, ALPHA, BETA, FockState, Monomial, canonical,
                   monomial_weight)

#: memo table for monomial-level products, keyed by (basis, u, n, v)
_PRODUCT_CACHE: dict = {}


def clear_product_cache() -> None:
    _PRODUCT_CACHE.clear()


def _gen_binom(top: int, k: int) -> int:
    """Generalized binomial C(top, k) for integer top (possibly negative)."""
    if k < 0:
        return 0
    if top >= 0:
        return comb(top, k)
    # C(-n, k) = (-1)^k C(n+k-1, k)
    return (-1) ** k * comb(-top + k - 1, k)


def _monomial_product(basis: str, u: Monomial, n: int, v: Monomial) -> dict:
    """dict monomial -> int for (u-monomial)_n (v-monomial).

    Every coefficient is an integer (binomials times bracket levels), so the
    memo holds Python ints; ``nth_product`` applies the state coefficients.
    """
    key = (basis, u, n, v)
    hit = _PRODUCT_CACHE.get(key)
    if hit is not None:
        return hit

    if not u:
        result = {v: 1} if n == -1 else {}
        _PRODUCT_CACHE[key] = result
        return result

    (m, field), rest = u[0], u[1:]
    rest_wt = monomial_weight(rest)
    v_wt = monomial_weight(v)
    result: dict = {}

    # creation side: k < 0, inner product nonzero only while
    # n - k - m <= wt(rest) + wt(v) - 1
    k_lo = n - m - (rest_wt + v_wt - 1)
    for k in range(-1, k_lo - 1, -1):
        c = _gen_binom(-k - 1, m - 1)
        if c == 0:
            continue
        inner = _monomial_product(basis, rest, n - k - m, v)
        if not inner:
            continue
        for mon, cf in inner.items():
            mon2 = canonical(mon + ((-k, field),))
            val = result.get(mon2, 0) + c * cf
            if val:
                result[mon2] = val
            else:
                result.pop(mon2, None)

    # annihilation side: k >= 1 (the zero mode kills everything here).
    # x_field(k) contracts each copy of the partner mode x_partner(-k) in v
    # with bracket value k; the copies are equal, so one removal times their
    # multiplicity gives the whole contraction.
    partner = _BETA_PAIR[field] if basis == BETA else field
    for k in range(1, v_wt + 1):
        mode = (k, partner)
        mult = v.count(mode)
        if not mult:
            continue
        pos = v.index(mode)
        c = _gen_binom(-k - 1, m - 1) * mult * k
        inner = _monomial_product(basis, rest, n - k - m, v[:pos] + v[pos + 1:])
        for mon, cf in inner.items():
            val = result.get(mon, 0) + c * cf
            if val:
                result[mon] = val
            else:
                result.pop(mon, None)

    _PRODUCT_CACHE[key] = result
    return result


def nth_product(u: FockState, n: int, v: FockState,
                weight_cap: int | None = None) -> FockState:
    """The mode product u_n v; exact, any integer n."""
    if u.rank != v.rank:
        raise ValueError(f"rank mismatch: {u.rank} vs {v.rank}")
    if u.basis != v.basis:
        raise ValueError(f"basis mismatch: {u.basis} vs {v.basis}")
    if weight_cap is not None and not u.is_zero() and not v.is_zero():
        top = u.max_weight() + v.max_weight() - n - 1
        if top > weight_cap:
            raise ValueError(
                f"product weight {top} exceeds cap {weight_cap}")
    out = FockState(u.rank, u.basis)
    for mu, cu in u.terms.items():
        for mv, cv in v.terms.items():
            coeff = cu * cv
            for mon, cf in _monomial_product(u.basis, mu, n, mv).items():
                out._add_term(mon, coeff * cf)
    return out


def translate(v: FockState) -> FockState:
    """Translation operator: the derivation x_i(-m) -> m * x_i(-m-1)."""
    out = FockState(v.rank, v.basis)
    for mon, c in v.terms.items():
        for pos, (lv, fld) in enumerate(mon):
            bumped = mon[:pos] + ((lv + 1, fld),) + mon[pos + 1:]
            out._add_term(canonical(bumped), c * lv)
    return out


def translate_power(v: FockState, k: int) -> FockState:
    """T^k(v) / k!, i.e. the state v_{-1-k} |0>."""
    out = v
    for _ in range(k):
        out = translate(out)
    return out.scale(Fraction(1, factorial(k))) if k else out


def conformal_vector(rank: int, basis: str = ALPHA) -> FockState:
    """omega = (1/2) sum_i x_i(-1) x_pair(i)(-1) |0> for the basis pairing."""
    out = FockState(rank, basis)
    if basis == ALPHA:
        for i in range(1, rank + 1):
            out._add_term(canonical(((1, i), (1, i))), Fraction(1, 2))
    else:
        out._add_term(canonical(((1, 1), (1, 1))), Fraction(1, 2))
        out._add_term(canonical(((1, 2), (1, 3))), Fraction(1))
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
    sum stops at j = wt(u) + wt(v) + 1, past which v_{n+j} u vanishes.
    """
    jmax = u.max_weight() + v.max_weight() + 1
    total = FockState(u.rank, u.basis)
    for j in range(0, jmax + 1):
        term = nth_product(v, n + j, u)
        if term.is_zero():
            continue
        term = translate_power(term, j)
        sign = Fraction(-1 if (n + j + 1) % 2 else 1)
        total = total + term.scale(sign)
    return nth_product(u, n, v) - total


def check_borcherds(u: FockState, v: FockState, w: FockState,
                    p: int, q: int, r: int) -> FockState:
    """Residual of the Borcherds identity at mode triple (p, q, r).

    sum_i C(p,i) (u_{r+i} v)_{p+q-i} w
      - sum_i (-1)^i C(r,i) [ u_{p+r-i} (v_{q+i} w)
                              - (-1)^r v_{q+r-i} (u_{p+i} w) ]
    """
    wt_u = u.max_weight()
    wt_v = v.max_weight()
    wt_w = w.max_weight()
    out = FockState(u.rank, u.basis)

    i = 0
    while r + i <= wt_u + wt_v - 1:
        c = _gen_binom(p, i)
        if c == 0 and p >= 0 and i > p:
            break
        if c != 0:
            uv = nth_product(u, r + i, v)
            if not uv.is_zero():
                out = out + nth_product(uv, p + q - i, w).scale(Fraction(c))
        i += 1

    i = 0
    while q + i <= wt_v + wt_w - 1 or p + i <= wt_u + wt_w - 1:
        c = _gen_binom(r, i)
        if c == 0 and r >= 0 and i > r:
            break
        if c != 0:
            s = Fraction(-c if i % 2 else c)
            vw = nth_product(v, q + i, w)
            if not vw.is_zero():
                out = out - nth_product(u, p + r - i, vw).scale(s)
            uw = nth_product(u, p + i, w)
            if not uw.is_zero():
                out = out + nth_product(v, q + r - i, uw).scale(
                    -s if r % 2 else s)
        i += 1
    return out
