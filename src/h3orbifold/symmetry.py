"""Symmetric-group actions on Fock states, Reynolds averaging, and the
named invariant generator families.

On the standard basis a permutation just relabels field indices.  On the
diagonalized rank-3 basis the induced action is monomial: transpositions swap
fields 2 and 3 (possibly with a cube-root-of-unity factor) and 3-cycles scale
fields 2 and 3 by z and z^2.  The action matrices are derived once, exactly,
through ``fock.change_basis`` from the action on the standard basis, so no
case analysis is hard-coded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _perms
from typing import NamedTuple

from .fock import ALPHA, BETA, FockState, canonical, change_basis
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


@lru_cache(maxsize=None)
def _beta_action_table(images: tuple) -> tuple:
    """For a rank-3 permutation, the monomial matrix of its action on the
    diagonalized basis: field -> (scalar, new_field).  Each mode b_f(-1) is
    moved to the standard basis, permuted there and moved back."""
    sigma = Permutation(images)
    table = []
    for f in (1, 2, 3):
        b_f = FockState.monomial(3, [(1, f)], basis=BETA)
        image = change_basis(act(sigma, change_basis(b_f, ALPHA)), BETA)
        if len(image.terms) != 1:
            raise AssertionError("group action is not monomial in this basis")
        (((_, new_field),), c), = image.terms.items()
        table.append((c, new_field))
    return tuple(table)


def act(sigma: Permutation, v: FockState) -> FockState:
    """The linear action of a permutation on a Fock state."""
    if len(sigma.images) != v.rank:
        raise ValueError(f"permutation of size {len(sigma.images)} on rank {v.rank}")
    out = FockState(v.rank, v.basis)
    if v.basis == ALPHA:
        for mon, c in v.terms.items():
            moved = canonical(tuple((lv, sigma(f)) for lv, f in mon))
            out._add_term(moved, c)
        return out
    table = _beta_action_table(sigma.images)
    for mon, c in v.terms.items():
        coeff = c
        modes = []
        for lv, f in mon:
            s, nf = table[f - 1]
            modes.append((lv, nf))
            coeff = coeff * s
        out._add_term(canonical(modes), coeff)
    return out


def reynolds(group: str, v: FockState) -> FockState:
    """Group-average projector onto invariants; idempotent."""
    members = GROUPS.get(group)
    if members is None:
        raise ValueError(f"unknown group spec {group!r} (use S3, Z3 or S2)")
    out = FockState(v.rank, v.basis)
    for sigma in members:
        out = out + act(sigma, v)
    return out.scale(Fraction(1, len(members)))


def is_invariant(group: str, v: FockState) -> bool:
    return all(act(sigma, v) == v for sigma in GROUPS[group])


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
    """
    if b is None:
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
