"""Finite groups as explicit permutation groups.

Groups are stored by full element enumeration (desk scale: orders up to a
few thousand), with elements represented as tuples of 0-based images.  The
element list is kept in lexicographic order so that coset representatives,
orbit representatives, and quotient constructions are deterministic across
runs.  There is one closure: `closure` multiplies generators out and raises
GroupError once it passes its bound, MAX_GROUP_ORDER = 10^6 for a group (so
S_9, 362880 elements, builds and S_10 does not) and #G for the table of a
G-action on a graph in `gcover`.

There is one group type: a subgroup is a `FiniteGroup` of the same degree,
closed from its generators.  There is one coset table: `left_cosets` builds
a `Cosets` (identity-first representatives plus the coset id of every
element of G) once per pair (G, H), and orbits on cosets, quotients and the
callers in `gcover` all look cosets up in it through `coset_index`.  There
is one coset action, `coset_action`, read by orbits on cosets, quotient
projections and the canonical leg layout in `gcover`.

There is one orbit routine: `orbit_partition` labels each point of 0..n-1
with the least point of its class under the pairs it is given.  Orbits on
cosets, the orbits of a G-action on a graph's points (`gcover`), the parts a
contraction merges and the connectedness of a stable graph (`graphs`), and
the transitivity of a monodromy tuple (`hurwitz`) all come from it.

Records are `NamedTuple`s.  A record that derives fields when it is built
is a `FrozenRecord` instead: a `__slots__` class that compares and hashes
the fields it names in `_compared` and raises AttributeError on every
assignment.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, NamedTuple, Sequence

from covercalc.errors import GroupError, InvariantError, NotNormalError, json_fields

Perm = tuple[int, ...]


def is_perm(a: Sequence[int], n: int) -> bool:
    """Whether a lists each of 0..n-1 exactly once, as ints (not floats or
    bools).  The length is compared first, so a huge n costs nothing when a
    is short."""
    return len(a) == n and all(type(x) is int for x in a) and sorted(a) == list(range(n))


def perm_from_json(entries: Sequence[int]) -> Perm:
    """The 0-based form of a 1-based JSON permutation.  It must be a list of
    ints (not floats or bools), GroupError otherwise; whether they form a
    permutation is left to the caller."""
    if not isinstance(entries, (list, tuple)) or not all(type(i) is int for i in entries):
        raise GroupError(f"permutation must be a list of integers: {entries}")
    return tuple(i - 1 for i in entries)


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
    return lcm(*cycle_type(a))


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


def perm_from_cycles(n: int, cyc_list: Sequence[Sequence[int]]) -> Perm:
    out = list(range(n))
    for cyc in cyc_list:
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


MAX_GROUP_ORDER = 10**6


def closure(identity: Perm, gens: Sequence[Perm], bound: int) -> set[Perm]:
    """Everything gens generate: breadth-first closure of the identity under
    left multiplication.  GroupError once it passes `bound` elements."""
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
                    if len(seen) > bound:
                        raise GroupError(
                            f"the generators give a group of more than {bound} "
                            "elements, the bound on a group's order"
                        )
        frontier = nxt
    return seen


class FrozenRecord:
    """Base of the records that derive fields when they are built.

    Fields are set once, by `_set`, and never rebound; equality (same class,
    same `_compared` fields) and hashing read only the fields in
    `_compared`.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({shown})"


class FiniteGroup(FrozenRecord):
    """A finite group of permutations of {0..degree-1}, fully enumerated.

    `position` maps each element to its place in `elements`, so membership
    is one dict lookup; it takes no part in equality.  Subgroups are groups
    of the same degree, built from their generators."""

    __slots__ = ("degree", "generators", "elements", "position")
    _compared = ("degree", "generators", "elements")

    def __init__(self, degree: int, generators: tuple[Perm, ...]) -> None:
        self._set(degree=degree, generators=generators)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the generators and close them into `elements`; perfbench's
        `groups.elements_built` counter observes this method by name."""
        for g in self.generators:
            if not is_perm(g, self.degree):
                shown = [i + 1 for i in g]  # the 1-based form of the JSON input
                raise GroupError(f"not a permutation of degree {self.degree}: {shown}")
        elements = tuple(sorted(closure(identity_perm(self.degree), self.generators,
                                       MAX_GROUP_ORDER)))
        self._set(elements=elements, position={g: i for i, g in enumerate(elements)})

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in self.position

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    def generated_subgroup(self, gens: Iterable[Perm]) -> "FiniteGroup":
        gens = tuple(gens)
        if not all(g in self for g in gens):
            raise GroupError("subgroup elements must lie in the parent group")
        return FiniteGroup(self.degree, gens)

    def cyclic_subgroup(self, g: Perm) -> "FiniteGroup":
        return self.generated_subgroup([g])

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "generators": [[i + 1 for i in g] for g in self.generators],
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteGroup":
        """Read {"degree", "generators"}: a degree >= 1 and a non-empty list
        of 1-based permutations of it, GroupError otherwise."""
        degree, gens = json_fields(data, "a group", GroupError, ("degree", "generators"))
        if type(degree) is not int:
            raise GroupError(f"group degree {degree!r} is not an integer")
        if degree < 1:
            raise GroupError(f"group degree {degree} is not positive")
        if not isinstance(gens, list) or not gens:
            raise GroupError("a group needs a non-empty list of generators")
        return FiniteGroup(degree, tuple(perm_from_json(g) for g in gens))


class Cosets(NamedTuple):
    """The left cosets gH of a subgroup H in G.

    reps[k] is the lexicographically first element of coset k and ids[i]
    the coset of group.elements[i].  Cosets are numbered in the order of
    their first elements, so the identity's coset is 0.
    """

    group: FiniteGroup
    reps: tuple[Perm, ...]
    ids: tuple[int, ...]


def left_cosets(group: FiniteGroup, sub: FiniteGroup) -> Cosets:
    """The coset table of sub in group, one pass over the elements of G."""
    if sub.degree != group.degree or not all(g in group for g in sub.generators):
        raise GroupError("subgroup belongs to a different group")
    ids = [-1] * len(group)
    reps = []
    for i, g in enumerate(group.elements):
        if ids[i] < 0:
            for h in sub.elements:
                ids[group.position[compose(g, h)]] = len(reps)
            reps.append(g)
    index = len(group) // len(sub)
    if len(reps) != index:
        raise InvariantError(f"{len(reps)} coset representatives for index {index}")
    return Cosets(group, tuple(reps), tuple(ids))


def coset_index(cosets: Cosets, g: Perm) -> int:
    """The id of the coset gH."""
    pos = cosets.group.position.get(g)
    if pos is None:
        raise GroupError("element not covered by coset representatives")
    return cosets.ids[pos]


def coset_action(cosets: Cosets, g: Perm) -> Perm:
    """The permutation g induces on the cosets by left multiplication: coset
    k goes to the coset of g rep_k."""
    return tuple(coset_index(cosets, compose(g, rep)) for rep in cosets.reps)


def cyclic_meet_order(group: FiniteGroup, h: Perm, sub: FiniteGroup) -> int:
    """#(<h> ∩ sub), with <h> generated inside group: GroupError when h is
    not an element of group."""
    return sum(1 for x in group.cyclic_subgroup(h).elements if x in sub)


def orbit_partition(n: int, links: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The least point of each point's class under the equivalence relation
    that the pairs in `links` generate on 0..n-1.

    One union-find whose roots are the least points of their classes: a
    union hangs the greater root under the lesser, so every point's parent
    is at most the point, and one pass in increasing order then reads each
    point's root off its parent's."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in links:
        x, y = find(x), find(y)
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y
    for x in range(n):
        parent[x] = parent[parent[x]]
    return tuple(parent)


def orbit_on_cosets(acting: FiniteGroup, cosets: Cosets) -> list[list[int]]:
    """Orbits of the left action of `acting` on the coset space G/H.

    Each orbit is the sorted list of its coset ids, so its representative
    (the first coset touched in canonical order) comes first; orbits are
    ordered by representative.
    """
    links = (link for t in acting.generators for link in enumerate(coset_action(cosets, t)))
    least = orbit_partition(len(cosets.reps), links)
    orbits: dict[int, list[int]] = {}
    for k, rep in enumerate(least):
        orbits.setdefault(rep, []).append(k)
    return list(orbits.values())


def check_normal(group: FiniteGroup, sub: FiniteGroup) -> None:
    """NotNormalError, with a generator of G as witness, unless gNg^-1 ⊆ N
    for every generator g: in a finite group that makes N normal."""
    for g in group.generators:
        gi = invert(g)
        for n in sub.elements:
            if compose(g, compose(n, gi)) not in sub:
                raise NotNormalError(g, n)


class QuotientGroup(FrozenRecord):
    """G/N realized as a permutation group acting on the coset space."""

    __slots__ = _compared = ("parent", "normal_subgroup", "cosets", "group")

    def __init__(self, parent: FiniteGroup, normal_subgroup: FiniteGroup) -> None:
        check_normal(parent, normal_subgroup)
        cosets = left_cosets(parent, normal_subgroup)
        self._set(parent=parent, normal_subgroup=normal_subgroup, cosets=cosets)
        gens = [self.project(g) for g in parent.generators]
        if not gens:
            gens.append(identity_perm(len(cosets.reps)))
        self._set(group=FiniteGroup(len(cosets.reps), tuple(gens)))

    def project(self, g: Perm) -> Perm:
        """The image of a parent element in the quotient group."""
        return coset_action(self.cosets, g)

    def rep_of(self, q: Perm) -> Perm:
        """A parent-group representative of a quotient element: q sends the
        identity's coset 0 to the coset it represents."""
        return self.cosets.reps[q[0]]


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
