"""Finite groups as explicit permutation groups.

Groups are stored by full element enumeration (desk scale: orders up to a
few thousand), with elements represented as tuples of 0-based images.  The
element list is kept in lexicographic order so that coset representatives,
orbit representatives, and quotient constructions are deterministic across
runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from covercalc.errors import InvariantError

Perm = tuple[int, ...]


def is_perm(a: Sequence[int], n: int) -> bool:
    """Whether a lists each of 0..n-1 exactly once."""
    return sorted(a) == list(range(n))


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """Left-action product: (a*b)(x) = a(b(x))."""
    return tuple(a[b[i]] for i in range(len(a)))


def invert(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_order(a: Perm) -> int:
    k, p, e = 1, a, identity_perm(len(a))
    while p != e:
        p = compose(a, p)
        k += 1
    return k


def cycle_type(a: Perm) -> tuple[int, ...]:
    """Cycle lengths sorted descending (a partition of the degree)."""
    seen = [False] * len(a)
    lengths = []
    for i in range(len(a)):
        if not seen[i]:
            j, c = i, 0
            while not seen[j]:
                seen[j] = True
                j = a[j]
                c += 1
            lengths.append(c)
    return tuple(sorted(lengths, reverse=True))


def cycles(a: Perm) -> list[tuple[int, ...]]:
    """Cycles of the permutation, each starting at its minimal point."""
    seen = [False] * len(a)
    out = []
    for i in range(len(a)):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = a[j]
            out.append(tuple(cyc))
    return out


def perm_from_cycles(n: int, cyc_list: Sequence[Sequence[int]]) -> Perm:
    out = list(range(n))
    for cyc in cyc_list:
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def centralizer(candidates: Iterable[Perm], elems: Sequence[Perm]) -> list[Perm]:
    """The candidates that commute with every element of elems, in order."""
    return [z for z in candidates if all(compose(z, a) == compose(a, z) for a in elems)]


def _closure(identity: Perm, gens: Sequence[Perm]) -> set[Perm]:
    """Everything gens generate: breadth-first closure of the identity under
    left multiplication."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = compose(g, a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


class GroupError(ValueError):
    pass


class NotNormalError(GroupError):
    def __init__(self, g: Perm, n: Perm):
        self.witness = (g, n)
        super().__init__(f"subgroup is not normal: conjugating {n} by {g} leaves it")


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group of permutations of {0..degree-1}, fully enumerated."""

    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...] = field(init=False)

    def __post_init__(self) -> None:
        for g in self.generators:
            if not is_perm(g, self.degree):
                raise GroupError(f"not a permutation of degree {self.degree}: {g}")
        elements = _closure(identity_perm(self.degree), self.generators)
        object.__setattr__(self, "elements", tuple(sorted(elements)))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in set(self.elements)

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    def order_of(self, g: Perm) -> int:
        if g not in self:
            raise GroupError("element does not belong to the group")
        return perm_order(g)

    def generated_subgroup(self, gens: Iterable[Perm]) -> "Subgroup":
        return Subgroup(self, frozenset(_closure(self.identity, tuple(gens))))

    def cyclic_subgroup(self, g: Perm) -> "Subgroup":
        return self.generated_subgroup([g])

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset(self.elements))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset([self.identity]))

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "generators": [[i + 1 for i in g] for g in self.generators],
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteGroup":
        degree = int(data["degree"])
        gens = tuple(tuple(i - 1 for i in g) for g in data["generators"])
        return FiniteGroup(degree, gens)


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: frozenset[Perm]

    def __post_init__(self) -> None:
        parent_set = set(self.parent.elements)
        if not self.members <= parent_set:
            raise GroupError("subgroup elements must lie in the parent group")
        if self.parent.identity not in self.members:
            raise GroupError("subgroup must contain the identity")
        for a in self.members:
            if invert(a) not in self.members:
                raise GroupError(f"subgroup not closed under inverse at {a}")
            for b in self.members:
                if compose(a, b) not in self.members:
                    raise GroupError(f"subgroup not closed under product at {a}*{b}")
        if len(self.parent) % len(self.members) != 0:
            raise GroupError("Lagrange violated; enumeration is corrupt")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, g: Perm) -> bool:
        return g in self.members

    def sorted_members(self) -> list[Perm]:
        return sorted(self.members)

    def as_group(self) -> FiniteGroup:
        """The subgroup reified as a group in its own right (same degree)."""
        return FiniteGroup(self.parent.degree, tuple(self.sorted_members()))


def left_cosets(group: FiniteGroup, sub: Subgroup) -> list[Perm]:
    """Deterministic left-coset representatives gH, one per coset.

    Representatives are the lexicographically first elements, scanned in
    canonical element order, so the identity's coset always comes first.
    """
    if sub.parent is not group and sub.parent != group:
        raise GroupError("subgroup belongs to a different group")
    covered: set[Perm] = set()
    reps = []
    for g in group.elements:
        if g not in covered:
            reps.append(g)
            for h in sub.members:
                covered.add(compose(g, h))
    index = len(group) // len(sub)
    if len(reps) != index:
        raise InvariantError(f"{len(reps)} coset representatives for index {index}")
    return reps


def cyclic_meet_order(group: FiniteGroup, h: Perm, sub: Subgroup) -> int:
    """#(<h> ∩ sub), with <h> generated inside group: GroupError when h is
    not an element of group."""
    return sum(1 for x in group.cyclic_subgroup(h).members if x in sub)


def coset_index(group: FiniteGroup, sub: Subgroup, reps: Sequence[Perm], g: Perm) -> int:
    """Index of the coset gH in the representative list."""
    target = frozenset(compose(g, h) for h in sub.members)
    for i, r in enumerate(reps):
        if r in target:
            return i
    raise GroupError("element not covered by coset representatives")


def orbit_on_cosets(
    acting: Subgroup, group: FiniteGroup, stab: Subgroup
) -> list[list[Perm]]:
    """Orbits of the left action of `acting` on the coset space G/stab.

    Returns a list of orbits; each orbit is a list of coset representatives
    with the orbit representative (deterministically the first coset touched
    in canonical order) in position 0.  Orbits are ordered by representative.
    """
    reps = left_cosets(group, stab)
    assigned = [False] * len(reps)
    orbits = []
    for i, r in enumerate(reps):
        if assigned[i]:
            continue
        orbit_idx = []
        frontier = [i]
        assigned[i] = True
        while frontier:
            j = frontier.pop()
            orbit_idx.append(j)
            for h in acting.members:
                k = coset_index(group, stab, reps, compose(h, reps[j]))
                if not assigned[k]:
                    assigned[k] = True
                    frontier.append(k)
        orbit_idx.sort()
        orbits.append([reps[j] for j in orbit_idx])
    return orbits


def check_normal(group: FiniteGroup, sub: Subgroup) -> None:
    """NotNormalError, with a generator of G as witness, unless gNg^-1 ⊆ N
    for every generator g: in a finite group that makes N normal."""
    for g in group.generators:
        gi = invert(g)
        for n in sub.members:
            if compose(g, compose(n, gi)) not in sub.members:
                raise NotNormalError(g, n)


@dataclass(frozen=True)
class QuotientGroup:
    """G/N realized as a permutation group acting on the coset space."""

    parent: FiniteGroup
    normal_subgroup: Subgroup
    coset_reps: tuple[Perm, ...] = field(init=False)
    group: FiniteGroup = field(init=False)

    def __post_init__(self) -> None:
        check_normal(self.parent, self.normal_subgroup)
        reps = tuple(left_cosets(self.parent, self.normal_subgroup))
        object.__setattr__(self, "coset_reps", reps)
        gens = []
        for g in self.parent.generators:
            gens.append(self._perm_of(g, reps))
        if not gens:
            gens.append(identity_perm(len(reps)))
        object.__setattr__(self, "group", FiniteGroup(len(reps), tuple(gens)))

    def _perm_of(self, g: Perm, reps: Sequence[Perm]) -> Perm:
        return tuple(
            coset_index(self.parent, self.normal_subgroup, reps, compose(g, r))
            for r in reps
        )

    def project(self, g: Perm) -> Perm:
        """The image of a parent element in the quotient group."""
        return self._perm_of(g, self.coset_reps)

    def rep_of(self, q: Perm) -> Perm:
        """A parent-group representative of a quotient element."""
        # q sends the identity coset (index of identity's coset) to the
        # coset it represents
        e_idx = coset_index(
            self.parent, self.normal_subgroup, self.coset_reps, self.parent.identity
        )
        return self.coset_reps[q[e_idx]]


def quotient(group: FiniteGroup, normal: Subgroup) -> QuotientGroup:
    return QuotientGroup(group, normal)


# named constructors


def symmetric_group(d: int) -> FiniteGroup:
    if d <= 0:
        raise GroupError("degree must be positive")
    if d == 1:
        return FiniteGroup(1, (identity_perm(1),))
    transposition = tuple([1, 0] + list(range(2, d)))
    cycle = tuple(list(range(1, d)) + [0])
    return FiniteGroup(d, (transposition, cycle))


def cyclic_group(n: int) -> FiniteGroup:
    if n <= 0:
        raise GroupError("order must be positive")
    return FiniteGroup(n, (tuple(list(range(1, n)) + [0]),))


def trivial_group() -> FiniteGroup:
    return FiniteGroup(1, (identity_perm(1),))


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """G1 x G2 acting on the disjoint union of the two point sets."""
    n1, n2 = g1.degree, g2.degree
    gens = []
    for a in g1.generators:
        gens.append(tuple(list(a) + [n1 + i for i in range(n2)]))
    for b in g2.generators:
        gens.append(tuple(list(range(n1)) + [n1 + b[i] for i in range(n2)]))
    return FiniteGroup(n1 + n2, tuple(gens))


def product_embed(g1: FiniteGroup, g2: FiniteGroup, a: Perm, b: Perm) -> Perm:
    """The element (a, b) of direct_product(g1, g2)."""
    return tuple(list(a) + [g1.degree + b[i] for i in range(g2.degree)])


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by its full value table."""

    source: FiniteGroup
    target: FiniteGroup
    table: dict

    def __post_init__(self) -> None:
        for a in self.source.elements:
            for b in self.source.elements:
                if compose(self.table[a], self.table[b]) != self.table[compose(a, b)]:
                    raise GroupError("value table is not a homomorphism")

    def __call__(self, g: Perm) -> Perm:
        return self.table[g]

    def is_surjective(self) -> bool:
        return set(self.table.values()) == set(self.target.elements)

    @staticmethod
    def from_generator_images(
        source: FiniteGroup, target: FiniteGroup, images: dict
    ) -> "GroupHom":
        table = {source.identity: target.identity}
        frontier = [source.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in source.generators:
                    b = compose(g, a)
                    img = compose(images[g], table[a])
                    if b not in table:
                        table[b] = img
                        nxt.append(b)
                    elif table[b] != img:
                        raise GroupError("generator images do not define a homomorphism")
            frontier = nxt
        return GroupHom(source, target, table)


def fiber_product_subgroup(
    g1: FiniteGroup, g2: FiniteGroup, phi1: GroupHom, phi2: GroupHom
) -> tuple[FiniteGroup, Subgroup]:
    """H1 x_G H2 inside the direct product permutation action.

    phi1: g1 -> Q and phi2: g2 -> Q must share the target Q.  Returns the
    ambient product group and the fiber product as its subgroup.
    """
    if phi1.target != phi2.target:
        raise GroupError("fiber product needs homomorphisms to a common target")
    dp = direct_product(g1, g2)
    members = frozenset(
        product_embed(g1, g2, a, b)
        for a, b in itertools.product(g1.elements, g2.elements)
        if phi1(a) == phi2(b)
    )
    return dp, Subgroup(dp, members)
