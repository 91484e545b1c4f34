"""Rank-n free-boson Fock space with exact coefficients.

States are finite linear combinations of creation monomials
x_{i1}(-m1)...x_{ik}(-mk)|0> over Q or Q(z).  Two mode bases are supported:

* ``"a"`` -- the standard basis, one field per tensor slot, with pairing
  [a_i(m), a_j(-m)] = m * delta_ij (any rank);
* ``"b"`` -- the diagonalized rank-3 basis in which cyclic rotations act by
  cube-root-of-unity scalings.  Its pairing couples field 1 with itself and
  fields 2 and 3 with each other: [b_2(m), b_3(-m)] = m, [b_2(m), b_2(-m)] = 0.

A monomial is stored as a tuple of (level, field) pairs sorted by level
descending then field ascending; the empty tuple is the vacuum.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Tuple, Union

from .scalars import ZETA, Scalar, parse_scalar, split_terms

Monomial = Tuple[Tuple[int, int], ...]
Coeff = Union[Fraction, Scalar]

ALPHA = "a"
BETA = "b"

#: pairing partner of each field index in the "b" basis (1<->1, 2<->3)
_BETA_PAIR = {1: 1, 2: 3, 3: 2}


def _normalize_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Scalar) and c.b == 0:
        return c.a
    if isinstance(c, int):
        return Fraction(c)
    return c


class _SortKeys(dict):
    """(level, field) -> (-level, field), each key built on first use."""

    def __missing__(self, mode):
        key = self[mode] = (-mode[0], mode[1])
        return key


#: the canonical sort key, looked up in C rather than built by a lambda
_sort_key = _SortKeys().__getitem__


def canonical(modes: Iterable[Tuple[int, int]]) -> Monomial:
    """Sort (level, field) pairs into the canonical order."""
    return tuple(sorted(modes, key=_sort_key))


def monomial_weight(mon: Monomial) -> int:
    return sum(level for level, _ in mon)


class FockState:
    """Sparse exact linear combination of creation monomials.  ``terms`` is
    a public dict, so a state is mutable and unhashable."""

    __slots__ = ("rank", "basis", "terms")

    def __init__(self, rank: int, basis: str = ALPHA, terms=None):
        if basis not in (ALPHA, BETA):
            raise ValueError(f"unknown basis tag {basis!r}")
        if basis == BETA and rank != 3:
            raise ValueError("the diagonalized basis is defined for rank 3 only")
        self.rank = rank
        self.basis = basis
        self.terms: dict = {}
        if terms:
            for mon, c in terms.items():
                self._add_term(mon, c)

    # -- construction ----------------------------------------------------

    @classmethod
    def vacuum(cls, rank: int, basis: str = ALPHA) -> "FockState":
        return cls(rank, basis, {(): Fraction(1)})

    @classmethod
    def monomial(cls, rank: int, modes, coeff: Coeff = Fraction(1),
                 basis: str = ALPHA) -> "FockState":
        mon = canonical(modes)
        for level, field in mon:
            if level < 1:
                raise ValueError("creation levels must be >= 1")
            if not 1 <= field <= rank:
                raise ValueError(f"field index {field} outside rank {rank}")
        return cls(rank, basis, {mon: coeff})

    def _add_term(self, mon: Monomial, c: Coeff) -> None:
        cur = self.terms.get(mon)
        new = c if cur is None else cur + c
        new = _normalize_coeff(new)
        if new:
            self.terms[mon] = new
        elif cur is not None:
            del self.terms[mon]

    def _check_compatible(self, other: "FockState") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "FockState") -> "FockState":
        self._check_compatible(other)
        out = FockState(self.rank, self.basis, dict(self.terms))
        for mon, c in other.terms.items():
            out._add_term(mon, c)
        return out

    def __sub__(self, other: "FockState") -> "FockState":
        self._check_compatible(other)
        out = FockState(self.rank, self.basis, dict(self.terms))
        for mon, c in other.terms.items():
            out._add_term(mon, -c)
        return out

    def scale(self, c: Coeff) -> "FockState":
        c = _normalize_coeff(c)
        out = FockState(self.rank, self.basis)
        if c:
            for mon, v in self.terms.items():
                out.terms[mon] = _normalize_coeff(v * c)
        return out

    def __eq__(self, other):
        if not isinstance(other, FockState):
            return NotImplemented
        return (self.rank == other.rank and self.basis == other.basis
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, modes) -> Coeff:
        return self.terms.get(canonical(modes), Fraction(0))

    # -- grading -----------------------------------------------------------

    def weight(self):
        """Common conformal weight of all monomials, or ``"mixed"``."""
        weights = {monomial_weight(m) for m in self.terms}
        if not weights:
            return 0
        if len(weights) > 1:
            return "mixed"
        return weights.pop()

    def max_weight(self) -> int:
        if not self.terms:
            return 0
        return max(monomial_weight(m) for m in self.terms)

    # -- mode actions --------------------------------------------------------

    def apply_creation(self, field: int, level: int) -> "FockState":
        """Left-multiply every monomial by the creation operator x_field(-level)."""
        if level < 1:
            raise ValueError("creation level must be >= 1")
        if not 1 <= field <= self.rank:
            raise ValueError(f"field index {field} outside rank {self.rank}")
        out = FockState(self.rank, self.basis)
        for mon, c in self.terms.items():
            out._add_term(canonical(mon + ((level, field),)), c)
        return out

    def apply_annihilation(self, field: int, level: int) -> "FockState":
        """Apply x_field(level), level >= 1: contract against matching creators.

        Each creation mode x_j(-level) in a monomial contributes the bracket
        value level * <field, j> times the monomial with that mode removed.
        """
        if level < 1:
            raise ValueError("annihilation level must be >= 1")
        if not 1 <= field <= self.rank:
            raise ValueError(f"field index {field} outside rank {self.rank}")
        partner = _BETA_PAIR[field] if self.basis == BETA else field
        out = FockState(self.rank, self.basis)
        for mon, c in self.terms.items():
            for pos, (lv, fld) in enumerate(mon):
                if lv == level and fld == partner:
                    rest = mon[:pos] + mon[pos + 1:]
                    out._add_term(rest, c * level)
        return out

    # -- text ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        def key(mon):
            return (monomial_weight(mon), mon)
        pieces = []
        for mon in sorted(self.terms, key=key):
            c = self.terms[mon]
            body = "".join(f"{self.basis}{f}(-{lv})" for lv, f in mon) or "1"
            cs = str(c)
            if cs == "1" and mon:
                pieces.append(body)
            elif cs == "-1" and mon:
                pieces.append(f"-{body}")
            elif set(cs) & set("+- ") and not cs.startswith("-"):
                pieces.append(f"({cs})*{body}" if mon else f"({cs})")
            elif cs.startswith("-") and (set(cs[1:]) & set("+- ")):
                neg = str(-c)
                pieces.append(f"-({neg})*{body}" if mon else f"-({neg})")
            else:
                pieces.append(f"{cs}*{body}" if mon else cs)
        text = " + ".join(pieces)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"<FockState rank={self.rank} basis={self.basis!r} {self}>"


# -- basis enumeration -----------------------------------------------------


def enumerate_basis(rank: int, weight: int) -> list:
    """All rank-colored creation monomials of the given total weight.

    The count is the q^weight coefficient of prod_k (1 - q^k)^(-rank).  The
    monomials of each (rank, weight) are enumerated once and memoised as a
    tuple; every call returns a fresh list, so a caller may mutate it.
    """
    if weight < 0:
        raise ValueError("weight must be >= 0")
    return list(_basis(rank, weight))


@lru_cache(maxsize=None)
def _basis(rank: int, weight: int) -> tuple:
    return tuple(_enumerate(rank, weight, weight, 1))


def _enumerate(rank: int, remaining: int, max_level: int,
               min_field: int) -> Iterator[Monomial]:
    # yields tuples already in canonical order: levels weakly decreasing,
    # fields weakly ascending inside each level block
    if remaining == 0:
        yield ()
        return
    for level in range(min(remaining, max_level), 0, -1):
        first = min_field if level == max_level else 1
        for field in range(first, rank + 1):
            for rest in _enumerate(rank, remaining - level, level, field):
                yield ((level, field),) + rest


# -- basis change (rank 3) ---------------------------------------------------

# Unnormalized substitution matrices between the two rank-3 bases.  With
# z a primitive cube root of unity:
#   b_1 ~ a_1 + a_2 + a_3,  b_2 ~ a_1 + z^2 a_2 + z a_3,  b_3 ~ a_1 + z a_2 + z^2 a_3
# and the inverse pattern uses the entry-wise conjugate matrix: the matrix is
# symmetric, so that is its adjoint, and the two compose to 3 times the
# identity.  The honest change of basis carries 1/sqrt(3) per mode; sqrt(3)
# is irrational, so conversion scales a k-mode monomial by 3^(-ceil(k/2))
# going to "a" and 3^(-floor(k/2)) going to "b".  Even-length monomials
# convert exactly; odd-length ones are off by one factor of sqrt(3) in a
# fixed documented direction, and the round trip is the identity.

_Z = Scalar(0, 1)
_Z2 = Scalar(-1, -1)
_ONE_S = Scalar(1, 0)

_B_TO_A = {
    1: ((1, _ONE_S), (2, _ONE_S), (3, _ONE_S)),
    2: ((1, _ONE_S), (2, _Z2), (3, _Z)),
    3: ((1, _ONE_S), (2, _Z), (3, _Z2)),
}
_A_TO_B = {f: tuple((g, w.conjugate()) for g, w in row)
           for f, row in _B_TO_A.items()}


def change_basis(state: FockState, target: str) -> FockState:
    """Rewrite a rank-3 state in the other mode basis.

    Round trips are exact; see the module comment for the scaling convention
    on odd-length monomials.
    """
    if state.rank != 3:
        raise ValueError("basis change is defined for rank 3 only")
    if target not in (ALPHA, BETA):
        raise ValueError(f"unknown basis tag {target!r}")
    if state.basis == target:
        return state
    table = _B_TO_A if target == ALPHA else _A_TO_B
    out = FockState(3, target)
    for mon, c in state.terms.items():
        k = len(mon)
        scale = Fraction(1, 3 ** (-(-k // 2) if target == ALPHA else k // 2))
        expansion = {(): c * scale}
        for level, field in mon:
            nxt: dict = {}
            for new_field, w in table[field]:
                for partial, pc in expansion.items():
                    key = partial + ((level, new_field),)
                    val = pc * w
                    cur = nxt.get(key)
                    nxt[key] = val if cur is None else cur + val
            expansion = nxt
        for modes, pc in expansion.items():
            out._add_term(canonical(modes), pc)
    return out


# -- text parsing -------------------------------------------------------------


#: a term, signs removed: its coefficient part, then its modes, which start
#: at the first mode tag, or "1" for the vacuum after "*", "z" or ")"
_TERM = re.compile(r"([^ab]*?)(?:(?<=[*z)])1|([ab].*))?", re.S)
#: one creation mode: tag, field and level, as ``int`` reads the numbers
_MODE = re.compile(r"([ab])(\d+)\((\s*[-+]?\d+(?:_\d+)*\s*)\)")


def _read_coefficient(part: str) -> Coeff:
    """The coefficient before a term's modes: 1 for empty text, else a scalar
    for ``parse_scalar``: bare, "(scalar)" or "(scalar)z", "*" after any part."""
    if part.startswith("*"):
        raise ValueError("nothing before '*'")
    part = part.rstrip("*")
    if not part.startswith("("):
        return parse_scalar(part) if part else Fraction(1)
    inner, close, rest = part[1:].partition(")")
    if not close or rest.lstrip("*") not in ("", "z"):
        raise ValueError("expected '(scalar)', then 'z' or nothing")
    return parse_scalar(inner) * (ZETA if rest else 1)


def parse_state(text: str, basis: str | None = None) -> FockState:
    """Parse states like "(3/2)*a1(-2)a1(-1) + (1+z)*b2(-1)b3(-1)".

    The basis is inferred from the mode tags; pure-scalar text carries no tag,
    so an explicit basis may be supplied for that case.  Each term from
    ``scalars.split_terms`` is a sign and a body: a coefficient
    (``_read_coefficient``; ``str`` prints "2*z*b1(-1)") and modes or "1".
    ValueError on bad text.
    """
    tags = {basis} if basis else set()
    parsed = []
    for negative, body in split_terms(text, "state"):
        coeff_part, mode_text = _TERM.fullmatch(body).groups(default="")
        try:
            coeff = _read_coefficient(coeff_part)
        except ValueError as exc:
            raise ValueError(f"bad coefficient {coeff_part!r} in {text!r}: "
                             f"{exc}") from None
        if negative:
            coeff = -coeff
        if _MODE.sub("", mode_text):
            raise ValueError(f"bad modes {mode_text!r} in {text!r}")
        modes = []
        for tag, field, level in _MODE.findall(mode_text):
            tags.add(tag)
            if len(tags) > 1:
                raise ValueError(f"mixed mode bases in {text!r}")
            field, level = int(field), int(level)
            if not 1 <= field <= 3:
                raise ValueError(f"field index {field} outside rank 3")
            if level >= 0:
                raise ValueError("creation modes must have negative level")
            modes.append((-level, field))
        parsed.append((canonical(modes), _normalize_coeff(coeff)))
    out = FockState(3, min(tags, default=ALPHA))
    for modes, c in parsed:
        out._add_term(modes, c)
    return out
