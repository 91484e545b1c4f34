"""Symmetric-group actions on Fock states, Reynolds averaging, and the
named invariant generator families.

On the standard basis a permutation just relabels field indices.  On the
diagonalized rank-3 basis the induced action is monomial: transpositions swap
fields 2 and 3 (possibly with a cube-root-of-unity factor) and 3-cycles scale
fields 2 and 3 by z and z^2.  Each (permutation, basis) has one integer
table, field -> (new field, exponent of z mod 3), read once from the
exponents of the basis change ``fock._B_TO_A`` (``_action_table``), so no
case analysis is hard-coded and no ``Scalar`` arithmetic moves a monomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _perms
from typing import NamedTuple

from .fock import _B_TO_A, ALPHA, BETA, FockState, canonical, change_basis
from .scalars import ZETA, Scalar
from .vertex import nth_product


class Permutation:
    """A bijection of {1..n}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"{images} is not a bijection of 1..{len(images)}")
        self.images = images

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition self after other."""
        if len(self.images) != len(other.images):
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(i)) for i in range(1, len(self.images) + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def cycle_type(self) -> tuple:
        seen = set()
        lengths = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            length = 0
            cur = start
            while cur not in seen:
                seen.add(cur)
                cur = self(cur)
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


#: supported group specs for averaging (rank 3 unless noted)
GROUPS = {
    "S3": [Permutation(p) for p in _perms((1, 2, 3))],
    "Z3": [Permutation((1, 2, 3)), Permutation((2, 3, 1)), Permutation((3, 1, 2))],
    "S2": [Permutation((1, 2, 3)), Permutation((1, 3, 2))],
}


#: z^k by k, and the exponent k of each power z^k in ``fock._B_TO_A``
_POWERS = (Scalar(1), ZETA, ZETA * ZETA)
_EXPONENTS = {p: k for k, p in enumerate(_POWERS)}


# In the ``a`` basis sigma moves a_f to a_sigma(f), and every k is 0.  In the
# ``b`` basis b_f ~ sum_g z^E[f][g] a_g, E the exponents of ``fock._B_TO_A``,
# so sigma(b_f) ~ sum_g z^E[f][g] a_sigma(g), and its coordinate on b_h is
# (1/3) sum_g z^d(g), d(g) = E[f][g] - E[h][sigma(g)] mod 3 (the inverse
# matrix is the conjugate over 3).  That coordinate is z^k when d is the
# constant k, and 0 when d takes each of 0, 1, 2 once, as 1 + z + z^2 = 0;
# anything else is refused, and so is a b_f with no image or more than one.
# The normalisation, one 1/sqrt(3) per mode, is the same on both sides, so
# the action is exactly the table.
@lru_cache(maxsize=None)
def _action_table(images: tuple, basis: str) -> tuple:
    """((h_1, k_1), (h_2, k_2), ...): the permutation with these images maps
    the mode of field f, at any level, to z^(k_f) times the mode of field
    h_f at that level, 0 <= k_f < 3, in the basis."""
    if basis == ALPHA:
        return tuple((h, 0) for h in images)
    exps = {f: {g: _EXPONENTS[w] for g, w in row} for f, row in _B_TO_A.items()}
    table = []
    for f in (1, 2, 3):
        diffs = {h: {(exps[f][g] - exps[h][images[g - 1]]) % 3 for g in (1, 2, 3)}
                 for h in (1, 2, 3)}
        if sorted(map(len, diffs.values())) != [1, 3, 3]:
            raise AssertionError("group action is not monomial in this basis")
        table += [(h, min(d)) for h, d in diffs.items() if len(d) == 1]
    return tuple(table)


def _table(sigma: Permutation, v: FockState) -> tuple:
    if len(sigma.images) != v.rank:
        raise ValueError(f"permutation of size {len(sigma.images)} on rank {v.rank}")
    return _action_table(sigma.images, v.basis)


def _moved(table: tuple, mon) -> tuple:
    """(image of the monomial in canonical order, its exponent k mod 3):
    the table maps mon to z^k times the image.  The one place that relabels
    the fields of a monomial: ``act``, ``is_invariant``, the orbit labels
    and charge mirror of ``structure`` and the Burnside counts of
    ``qseries`` all read it."""
    k = 0
    modes = []
    for lv, f in mon:
        h, e = table[f - 1]
        modes.append((lv, h))
        k += e
    return canonical(modes), k % 3


def act(sigma: Permutation, v: FockState) -> FockState:
    """The linear action of a permutation on a Fock state, read from its
    ``_action_table``; a coefficient is multiplied only by a power z^k,
    k != 0."""
    table = _table(sigma, v)
    out = FockState(v.rank, v.basis)
    for mon, c in v.terms.items():
        moved, k = _moved(table, mon)
        out._add_term(moved, c * _POWERS[k] if k else c)
    return out


def _members(group: str) -> list:
    members = GROUPS.get(group)
    if members is None:
        raise ValueError(f"unknown group spec {group!r} (use S3, Z3 or S2)")
    return members


def reynolds(group: str, v: FockState) -> FockState:
    """Group-average projector onto invariants; idempotent."""
    members = _members(group)
    out = FockState(v.rank, v.basis)
    for sigma in members:
        out = out + act(sigma, v)
    return out.scale(Fraction(1, len(members)))


def is_invariant(group: str, v: FockState) -> bool:
    """True if every element of the group fixes v.  sigma maps monomials
    bijectively, m to z^k sigma(m), so it fixes v exactly when
    c(sigma(m)) = z^k c(m) for every monomial m of v."""
    terms = v.terms
    for sigma in _members(group):
        table = _table(sigma, v)
        for mon, c in terms.items():
            moved, k = _moved(table, mon)
            if terms.get(moved) != (c * _POWERS[k] if k else c):
                return False
    return True


# -- named generator families -------------------------------------------------


class GeneratorId(NamedTuple):
    """Symbolic handle for one of the named invariant generators."""
    family: str
    indices: tuple

    def __str__(self):
        return f"{self.family}({','.join(str(i) for i in self.indices)})"


#: every generator family as (basis, field patterns): the generator with
#: indices i_1..i_k is the sum over its patterns (f_1..f_k) of the monomials
#: with modes (i_j + 1, f_j), each with coefficient 1.  "omega1/2/3" live in
#: the standard basis (sums over the three fields), the "_0" families in the
#: diagonalized one
FAMILIES = {
    "omega1": (ALPHA, ((1,), (2,), (3,))),
    "omega2": (ALPHA, ((1, 1), (2, 2), (3, 3))),
    "omega3": (ALPHA, ((1, 1, 1), (2, 2, 2), (3, 3, 3))),
    "omega1_0": (BETA, ((1,),)),
    "omega2_0": (BETA, ((2, 3), (3, 2))),
    "omega3_0": (BETA, ((2, 2, 2), (3, 3, 3))),
    "omega23_0": (BETA, ((2, 3),)),
    "omega222_0": (BETA, ((2, 2, 2),)),
    "omega333_0": (BETA, ((3, 3, 3),)),
}


def build_generator(gid: GeneratorId) -> FockState:
    """The named state, exactly as defined by its family in ``FAMILIES``."""
    family, idx = gid.family, tuple(gid.indices)
    if family not in FAMILIES:
        raise ValueError(f"unknown generator family {family!r}")
    basis, patterns = FAMILIES[family]
    arity = len(patterns[0])
    if len(idx) != arity:
        raise ValueError(f"{family} takes {arity} indices, got {len(idx)}")
    if any(i < 0 for i in idx):
        raise ValueError("generator indices must be >= 0")
    out = FockState(3, basis)
    for fields in patterns:
        out._add_term(canonical([(i + 1, f) for i, f in zip(idx, fields)]),
                      Fraction(1))
    return out


def gen(family: str, *indices: int) -> FockState:
    return build_generator(GeneratorId(family, tuple(indices)))


def verify_generator_translation(a: int, b: int = None, c: int = None) -> FockState:
    """Residual of the bridge between the two generator families.

    With the stored normalization (each diagonal-basis mode absorbs one
    1/sqrt(3)), the bridge identities read, after rewriting the standard-basis
    state in the diagonalized basis:

        rewrite(omega1(a))     = 3 * omega1_0(a)
        rewrite(omega2(a,b))   = omega2_0(a,b) + omega1_0(a)_{-1} omega1_0(b)
        rewrite(omega3(a,b,c)) = omega3_0(a,b,c)
                                 + omega1_0(a)_{-1} omega2_0(b,c)
                                 + omega1_0(b)_{-1} omega2_0(a,c)
                                 + omega1_0(c)_{-1} omega2_0(a,b)
                                 + omega1_0(a)_{-1} omega1_0(b)_{-1} omega1_0(c)

    (the square root powers all collapse to integral powers of 3 because the
    identities are homogeneous in the number of modes.)  Returns LHS - RHS.
    A c without b names no identity and is refused.
    """
    if b is None:
        if c is not None:
            raise ValueError("the third index needs a second one")
        lhs = change_basis(gen("omega1", a), BETA)
        return lhs - gen("omega1_0", a).scale(Fraction(3))
    if c is None:
        lhs = change_basis(gen("omega2", a, b), BETA)
        rhs = gen("omega2_0", a, b) + nth_product(gen("omega1_0", a), -1,
                                                  gen("omega1_0", b))
        return lhs - rhs
    lhs = change_basis(gen("omega3", a, b, c), BETA)
    rhs = gen("omega3_0", a, b, c)
    for (x, yz) in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
        rhs = rhs + nth_product(gen("omega1_0", x), -1, gen("omega2_0", *yz))
    rhs = rhs + nth_product(gen("omega1_0", a), -1,
                            nth_product(gen("omega1_0", b), -1, gen("omega1_0", c)))
    return lhs - rhs
