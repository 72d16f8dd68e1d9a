"""Group constructions that only the tests use, kept as named oracles.

A homomorphism by its full value table, the direct product acting on the
disjoint union of the point sets, the fiber product H1 x_Q H2 inside it,
and the centralizer by filtering candidates.  The package itself never
builds these; the tests use them to make groups and subgroups with a known
structure, and the Hurwitz enumeration oracle uses the centralizer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from covercalc.groups import FiniteGroup, GroupError, Perm, compose


def centralizer(candidates: Iterable[Perm], elems: Sequence[Perm]) -> list[Perm]:
    """The candidates that commute with every element of elems, in order."""
    return [z for z in candidates if all(compose(z, a) == compose(a, z) for a in elems)]


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
) -> tuple[FiniteGroup, FiniteGroup]:
    """H1 x_G H2 inside the direct product permutation action.

    phi1: g1 -> Q and phi2: g2 -> Q must share the target Q.  Returns the
    ambient product group and the fiber product as its subgroup, generated
    by all of its members.
    """
    if phi1.target != phi2.target:
        raise GroupError("fiber product needs homomorphisms to a common target")
    dp = direct_product(g1, g2)
    members = sorted(
        product_embed(g1, g2, a, b)
        for a, b in itertools.product(g1.elements, g2.elements)
        if phi1(a) == phi2(b)
    )
    sub = dp.generated_subgroup(members)
    if len(sub) != len(members):
        raise GroupError("the fiber product is not closed under products")
    return dp, sub
