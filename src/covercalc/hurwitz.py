"""Hurwitz counts from S_d characters, a Möbius sum and Burnside's lemma.

A degree-d cover of the line with branch profiles λ_1..λ_n is a tuple
(s_1..s_n) of permutations of cycle types λ_i, with product one, that
generates a transitive subgroup of S_d.  Covers up to isomorphism are the
orbits of S_d acting on these tuples by simultaneous conjugation.  Neither
count below lists S_d.

Weighted (stack-degree) count: T/d!, with T the number of transitive
tuples.  The Frobenius formula (Serre, *Topics in Galois Theory*, §7.2)
gives the number A of all product-one tuples,

    A(d; λ) = (1/d!) Σ_χ χ(1)² Π_i |C_i| χ(C_i) / χ(1),

with integer characters from the Murnaghan–Nakayama rule.  The tuples
whose entries keep every block of a set partition of 0..d−1 with block
sizes m = (m_1..m_r) factor over the blocks: an entry of type λ_i deals its
cycles into types ρ_j of size m_j on the blocks, and each block is counted
by the Frobenius formula, so there are

    F(m; λ) = Σ_{χ_j ⊢ m_j} Π_j χ_j(1)²/m_j! · Π_i Σ_ρ Π_j |C_ρ_j| χ_j(ρ_j) / χ_j(1),

ρ running over the deals of λ_i into sizes m; F((d); λ) = A(d; λ).  Möbius
inversion over the lattice of set partitions, whose Möbius function from a
partition with r blocks to the one-block partition is (−1)^(r−1) (r−1)!
(Stanley, *Enumerative Combinatorics 1*, Ex. 3.10.4), leaves the tuples
with one orbit:

    T(d; λ) = Σ_{m ⊢ d} (−1)^(r−1) (r−1)! N(m) F(m; λ),
    N(m) = d! / (Π_j m_j! Π_s c_s!),

N(m) the number of set partitions with block sizes m, c_s of them of size s.
Points of one cycle type raise its deal sum to their number, so the cost
depends on the distinct types, not on the number of points.  At d = 7, in
a fresh process on a 2-core Xeon (Python 3.11), 20 points of (2,2,1,1,1),
(2,1,1,1,1,1) and (3,2,1,1), and 28 points of those and (3,1,1,1,1), take
6–10 ms each; the inclusion–exclusion over the orbit of the point 0 that
this sum replaced took 1.37 s and 3.85 s.

Unweighted count, by Burnside: the number of orbits is the mean over c in
S_d of the number of tuples c fixes.  An element c ≠ 1 that commutes with
a transitive group fixes no point, nor does any of its powers, so all its
cycles have one length k, k | d.  With m = d/k, c_k one such element and
C(c_k) = Z/k ≀ S_m its centralizer, there are d!/|C(c_k)| of them, so

    orbits = Σ_{k | d} |Fix(c_k)| / |C(c_k)|,

and the k = 1 term is the weighted count.  For k ≥ 2 the tuples fixed by
c_k have their entries in C(c_k), and are counted inside it by one pass
over the entries; the divisor is the order of the group that pass lists.
The pass keys each prefix on its orbits, each point labelled by the least
point of its orbit (`groups.orbit_partition`, the package's one orbit
routine), and `is_transitive` reads those labels.  The pass costs linearly
in the number of branch points.  The degree stays at most 7: C(c_k) has
k^m m! elements, 3840 at d = 10.

The number of branch points stays at most MAX_BRANCH_POINTS = 20, checked
before any count.  The refusal above it is part of the CLI's output, which
this module keeps as it is; the counts that need more points, genus-h
targets and ELSV in higher genus (ROADMAP items 5 and 18), will set the new
bound from the cost of the Burnside pass and of the numbers printed.  A
7-cycle and 400 transpositions took 36 s in-process before the bound.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from covercalc.errors import HurwitzError, InvariantError
from covercalc.exact import sub_multisets
from covercalc.groups import FiniteGroup, Perm, compose, cycle_type, identity_perm
from covercalc.groups import orbit_partition, perm_from_cycles


# The most branch points `hurwitz_cover_count` counts over.
MAX_BRANCH_POINTS = 20


def _normalize_type(d: int, ctype) -> tuple[int, ...]:
    """A cycle type as a partition of d: a list of ints (not floats, bools or
    strings), HurwitzError otherwise."""
    if not isinstance(ctype, (list, tuple)) or not all(type(x) is int for x in ctype):
        raise HurwitzError(f"cycle type {ctype!r} is not a list of integers")
    parts = tuple(sorted(ctype, reverse=True))
    if any(p < 1 for p in parts) or sum(parts) != d:
        raise HurwitzError(f"{ctype} is not a partition of {d}")
    return parts


def class_size(d: int, parts: tuple[int, ...]) -> int:
    """The number of permutations of S_d with cycle type `parts`: d!/z,
    z = prod over part sizes i of i^m_i m_i!, m_i parts of size i."""
    z = prod(i**m * factorial(m) for i, m in Counter(parts).items())
    return factorial(d) // z


def is_transitive(d: int, perms) -> bool:
    """Whether <perms> is transitive on 0..d-1: whether the pairs (x, p(x))
    join every point to 0.  Forward images suffice: in a finite group the
    orbit under the generators is closed under inverses."""
    return not any(orbit_partition(d, (link for p in perms for link in enumerate(p))))


@lru_cache(maxsize=None)
def partitions(d: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The partitions of d into parts of at most `largest` (default d), each
    descending."""
    if d == 0:
        return ((),)
    top = d if largest is None else min(d, largest)
    return tuple((p, *rest) for p in range(top, 0, -1) for rest in partitions(d - p, p))


@lru_cache(maxsize=None)
def character(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """The irreducible character χ_shape of S_d at cycle type `cycles`, by the
    Murnaghan–Nakayama rule: remove a rim hook of length cycles[0] in every
    way, with sign (−1)^(its height), and recurse on the rest.

    On the beta-numbers b_i = shape_i + (rows − 1 − i), removing a rim hook of
    length k moves one b to an unoccupied b − k ≥ 0, and its height is the
    number of beta-numbers strictly between the two."""
    if not cycles:
        return 1
    k, rest = cycles[0], cycles[1:]
    rows = len(shape)
    beta = [part + rows - 1 - i for i, part in enumerate(shape)]
    total = 0
    for b in beta:
        if b >= k and b - k not in beta:
            height = sum(b - k < c < b for c in beta)
            moved = sorted((c - k if c == b else c for c in beta), reverse=True)
            smaller = tuple(p for i, c in enumerate(moved) if (p := c - (rows - 1 - i)))
            total += (-1) ** height * character(smaller, rest)
    return total


@lru_cache(maxsize=None)
def _central_character(shape: tuple[int, ...], parts: tuple[int, ...]) -> int:
    """|C| χ(C) / χ(1) for the class C of type `parts`: a central character,
    so an integer."""
    d = sum(parts)
    value = class_size(d, parts) * character(shape, parts)
    dim = character(shape, (1,) * d)
    if value % dim:
        raise InvariantError(f"χ_{shape}(1) = {dim} does not divide |C|χ(C) = {value} "
                             f"on class {parts}")
    return value // dim


@lru_cache(maxsize=None)
def _deals(parts: tuple[int, ...], sizes: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Each way to deal the descending `parts` into sub-multisets of the
    given sizes, in order: the cycle types, block by block, that a
    permutation of type `parts` keeping blocks of these sizes can have."""
    if not sizes:
        return ((),)
    return tuple((sub, *rest) for _, sub, left in sub_multisets(parts) if sum(sub) == sizes[0]
                 for rest in _deals(left, sizes[1:]))


def _transitive_tuples(d: int, types) -> int:
    """T(d; types): the product-one tuples of these cycle types, each a
    descending tuple, that are transitive on 0..d-1, by the Möbius sum over
    the block sizes m of a set partition.

    For each m, `fixing` sums over a shape χ_j of each block the product of
    χ_j(1)² and, for each point, its deals' sum of Π_j |C_ρ_j| χ_j(ρ_j)/χ_j(1):
    Π_j m_j! times the tuples that keep every block of one such partition."""
    # each distinct type once, fewest parts (so fewest deals) first
    repeats = sorted(Counter(types).items(), key=lambda item: len(item[0]))
    total = Fraction(0)
    for sizes in partitions(d):
        if not all(_deals(t, sizes) for t, _ in repeats):
            continue
        fixing = 0
        for shapes in itertools.product(*map(partitions, sizes)):
            term = prod(character(shape, (1,) * m) ** 2 for shape, m in zip(shapes, sizes))
            for t, n in repeats:
                term *= sum(prod(map(_central_character, shapes, deal))
                            for deal in _deals(t, sizes)) ** n
                if not term:
                    break
            fixing += term
        # the Möbius function (−1)^(r−1) (r−1)! times N(m) fixing / Π_j m_j!
        r = len(sizes)
        total += Fraction((-1) ** (r - 1) * factorial(r - 1) * factorial(d) * fixing,
                          prod(map(factorial, (*sizes, *sizes, *Counter(sizes).values()))))
    if total.denominator != 1 or total < 0:
        raise InvariantError(f"{total} transitive tuples of types {types} in degree {d}")
    return int(total)


@lru_cache(maxsize=None)
def semiregular_centralizer(d: int, k: int) -> FiniteGroup:
    """The centralizer Z/k ≀ S_m of c_k = (0..k−1)(k..2k−1)..., m = d/k.  Its
    generators: c_k on the first block, the swap of the first two blocks and
    the cycle of all blocks, each preserving the position inside a block."""
    m = d // k
    group = FiniteGroup(d, (
        perm_from_cycles(d, [range(k)]),
        perm_from_cycles(d, [(j, k + j) for j in range(k)] if m > 1 else []),
        perm_from_cycles(d, [[j + k * b for b in range(m)] for j in range(k)]),
    ))
    if len(group) != factorial(d) // class_size(d, (k,) * m):
        raise InvariantError(f"the centralizer of type ({k}^{m}) has {len(group)} elements")
    return group


def _fixed_tuples(d: int, k: int, types: list[tuple[int, ...]]) -> int:
    """|Fix(c_k)|: the transitive product-one tuples of these cycle types with
    every entry in C(c_k).

    One pass over every entry but the last counts the prefixes by their
    orbits and product, the orbits as the tuple of each point's least orbit
    mate (`orbit_partition`).  The last entry is the inverse of the product,
    so it has the product's cycle type and lies in the group the prefix
    generates: the prefix's orbits decide transitivity.
    """
    members: dict[tuple[int, ...], list[Perm]] = {}
    for g in semiregular_centralizer(d, k).elements:
        members.setdefault(cycle_type(g), []).append(g)
    identity = identity_perm(d)
    states = Counter({(identity, identity): 1})
    for t in types[:-1]:
        after = Counter()
        for (least, product), ways in states.items():
            for s in members.get(t, ()):
                merged = orbit_partition(d, itertools.chain(enumerate(least), enumerate(s)))
                after[merged, compose(product, s)] += ways
        states = after
    return sum(ways for (least, product), ways in states.items()
               if cycle_type(product) == types[-1] and is_transitive(d, (least,)))


def hurwitz_cover_count(d: int, cycle_types, weighted: bool = False) -> Fraction:
    """The number of tuples (s_1..s_n) of the given cycle types with product
    one, generating a transitive subgroup of S_d, up to simultaneous
    conjugation: Σ_{k | d} |Fix(c_k)| / |C(c_k)| by Burnside's lemma, with
    c_k of cycle type (k^m) and C(c_k) its centralizer.

    With `weighted=True` each class is weighted by 1/#centralizer (the
    stack-degree convention), which sums to T/d!, T the number of transitive
    tuples, from S_d characters by a Möbius sum over set partitions.  The
    degree is at most 7, so that the centralizers C(c_k) the Burnside terms
    list stay small, and the branch points at most MAX_BRANCH_POINTS.
    """
    if d < 1 or d > 7:
        raise HurwitzError(f"degree {d} outside the enumeration range 1..7")
    if not isinstance(cycle_types, (list, tuple)):
        raise HurwitzError(f"cycle types {cycle_types!r} are not a list of lists")
    types = [_normalize_type(d, c) for c in cycle_types]
    if len(types) < 1:
        raise HurwitzError("at least one branch point is required")
    if len(types) > MAX_BRANCH_POINTS:
        raise HurwitzError(f"{len(types)} branch points is above {MAX_BRANCH_POINTS}, "
                           "the bound on the branch points counted")
    transitive = _transitive_tuples(d, types)
    count = Fraction(transitive, factorial(d))
    if weighted or transitive == 0:
        return count
    for k in range(2, d + 1):
        if d % k == 0:
            count += Fraction(_fixed_tuples(d, k, types), len(semiregular_centralizer(d, k)))
    if count.denominator != 1:
        raise InvariantError(f"Burnside's sum for {types} in degree {d} is {count}, "
                             "not a whole number")
    return count
