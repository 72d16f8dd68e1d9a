"""Hurwitz counts from S_d characters and Burnside's lemma.

A degree-d cover of the line with branch profiles λ_1..λ_n is a tuple
(s_1..s_n) of permutations of cycle types λ_i, with product one, that
generates a transitive subgroup of S_d.  Covers up to isomorphism are the
orbits of S_d acting on these tuples by simultaneous conjugation.  Neither
count below lists S_d.

Weighted (stack-degree) count: T/d!, with T the number of transitive
tuples.  The Frobenius formula gives the number A of all product-one
tuples,

    A(d; λ) = (1/d!) Σ_χ χ(1)² Π_i |C_i| χ(C_i) / χ(1),

with integer characters from the Murnaghan–Nakayama rule.  A tuple whose
orbit of the point 0 has k points is a transitive tuple of some types μ_i on
that orbit and any product-one tuple of types λ_i − μ_i on the other d − k
points, so

    T(d; λ) = A(d; λ) − Σ_{k<d} C(d−1, k−1) Σ_μ T(k; μ) A(d−k; λ − μ),

μ running over the choices of sub-partitions μ_i ⊂ λ_i of size k.

Unweighted count, by Burnside: the number of orbits is the mean over c in
S_d of the number of tuples c fixes.  An element c ≠ 1 that commutes with
a transitive group fixes no point, nor does any of its powers, so all its
cycles have one length k, k | d.  There are d!/(k^m m!) such elements,
m = d/k, so with c_k one of them

    orbits = Σ_{k | d} |Fix(c_k)| / (k^m m!),

and the k = 1 term is the weighted count.  For k ≥ 2 the tuples fixed by
c_k have their entries in the centralizer C(c_k) = Z/k ≀ S_m, of order at
most 48 for d ≤ 7, and are counted inside it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from covercalc.errors import HurwitzError, InvariantError
from covercalc.groups import FiniteGroup, Perm, compose, cycle_type, invert, perm_from_cycles


# Neither formula needs this cap: the enumeration it bounds, of the middle
# entries inside C(c_k), is never longer than the S_d product it measures.
# It stays so that the inputs refused, and their messages, do not change.
TUPLE_CAP = 10**6


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
    """Whether <perms> is transitive on 0..d-1.  Forward images suffice: in
    a finite group the orbit under the generators is closed under inverses."""
    reach = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in reach:
                reach.add(y)
                frontier.append(y)
    return len(reach) == d


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
def _product_one_tuples(d: int, types: tuple[tuple[int, ...], ...]) -> int:
    """A(d; types): the tuples of S_d of these cycle types with product one,
    transitive or not, by the Frobenius formula."""
    total = sum(character(shape, (1,) * d) ** 2
                * prod(_central_character(shape, t) for t in types)
                for shape in partitions(d))
    if total % factorial(d):
        raise InvariantError(f"character sum {total} for {types} is not divisible by {d}!")
    return total // factorial(d)


@lru_cache(maxsize=None)
def _splits(parts: tuple[int, ...], k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each (sub, rest) with sub a sub-multiset of `parts` of size k and rest
    the parts left over."""
    counts = sorted(Counter(parts).items(), reverse=True)
    out = []
    for picks in itertools.product(*(range(m + 1) for _, m in counts)):
        if sum(p * n for (p, _), n in zip(counts, picks)) == k:
            sub = tuple(p for (p, _), n in zip(counts, picks) for _ in range(n))
            rest = tuple(p for (p, m), n in zip(counts, picks) for _ in range(m - n))
            out.append((sub, rest))
    return tuple(out)


@lru_cache(maxsize=None)
def _transitive_tuples(d: int, types: tuple[tuple[int, ...], ...]) -> int:
    """T(d; types): the product-one tuples of these cycle types that are
    transitive on 0..d-1.  `types` is sorted, as both counts are symmetric."""
    total = _product_one_tuples(d, types)
    for k in range(1, d):
        # splits that differ only in order give equal terms
        terms = Counter()
        for split in itertools.product(*(_splits(t, k) for t in types)):
            terms[tuple(sorted(s for s, _ in split)), tuple(sorted(r for _, r in split))] += 1
        for (subs, rests), ways in terms.items():
            total -= (ways * comb(d - 1, k - 1)
                      * _transitive_tuples(k, subs) * _product_one_tuples(d - k, rests))
    if total < 0:
        raise InvariantError(f"{total} transitive tuples of types {types} in degree {d}")
    return total


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
    if len(group) != k**m * factorial(m):
        raise InvariantError(f"the centralizer of type ({k}^{m}) has {len(group)} elements")
    return group


def _fixed_tuples(d: int, k: int, types: list[tuple[int, ...]]) -> int:
    """|Fix(c_k)|: the transitive product-one tuples of these cycle types with
    every entry in C(c_k).

    The first entry runs over representatives of its C(c_k)-conjugacy
    classes, each counted with its class size; the last entry is the inverse
    of the product of the others.  A tuple is counted at its shortest prefix
    that is transitive: from there, any middle entries whose product leaves a
    last entry of its type complete it.  A prefix of every entry but the last
    that is not transitive completes nothing, since the last entry lies in
    the group it generates.
    """
    group = semiregular_centralizer(d, k)
    members: dict[tuple[int, ...], list[Perm]] = {}
    for g in group.elements:
        members.setdefault(cycle_type(g), []).append(g)
    classes = [members.get(t, []) for t in types]
    # no tuple: a type C(c_k) lacks, or a single entry, which product one
    # makes the identity, not transitive for d >= 2
    if len(classes) < 2 or not all(classes):
        return 0
    # completions[j][p]: the ways to pick the middle entries after the j-th
    # such that the last entry, (p times their product)^-1, has its type
    last = set(classes[-1])
    completions = [{p: int(invert(p) in last) for p in group.elements}]
    for middle in reversed(classes[1:-1]):
        after = completions[-1]
        completions.append({p: sum(after[compose(p, s)] for s in middle)
                            for p in group.elements})
    completions.reverse()
    total = 0
    seen: set[Perm] = set()
    for first in classes[0]:
        if first in seen:
            continue
        conjugates = {compose(g, compose(first, invert(g))) for g in group.elements}
        seen |= conjugates
        stack = [((first,), first)]
        while stack:
            prefix, product = stack.pop()
            chosen = len(prefix) - 1
            if is_transitive(d, prefix):
                total += len(conjugates) * completions[chosen][product]
            elif chosen < len(classes) - 2:
                stack.extend(((*prefix, s), compose(product, s)) for s in classes[chosen + 1])
    return total


def hurwitz_cover_count(d: int, cycle_types, weighted: bool = False) -> Fraction:
    """The number of tuples (s_1..s_n) of the given cycle types with product
    one, generating a transitive subgroup of S_d, up to simultaneous
    conjugation: Σ_{k | d} |Fix(c_k)| / (k^m m!) by Burnside's lemma, with
    c_k of cycle type (k^m).

    With `weighted=True` each class is weighted by 1/#centralizer (the
    stack-degree convention), which sums to T/d!, T the number of transitive
    tuples, from S_d characters by inclusion–exclusion over the orbit of the
    point 0.  Bounds kept from the enumeration this replaced: d <= 7, and at
    most TUPLE_CAP tuples of middle entries, the product of their class sizes.
    """
    if d < 1 or d > 7:
        raise HurwitzError(f"degree {d} outside the enumeration range 1..7")
    if not isinstance(cycle_types, (list, tuple)):
        raise HurwitzError(f"cycle types {cycle_types!r} are not a list of lists")
    types = [_normalize_type(d, c) for c in cycle_types]
    if len(types) < 1:
        raise HurwitzError("at least one branch point is required")
    tuples = prod(class_size(d, t) for t in types[1:-1])
    if tuples > TUPLE_CAP:
        raise HurwitzError(
            f"{tuples} tuples of middle branch points to enumerate, over the cap of "
            f"{TUPLE_CAP}; counts this large need the character formula (ROADMAP item 5)"
        )
    transitive = _transitive_tuples(d, tuple(sorted(types)))
    count = Fraction(transitive, factorial(d))
    if weighted or transitive == 0:
        return count
    for k in range(2, d + 1):
        if d % k == 0:
            count += Fraction(_fixed_tuples(d, k, types), k ** (d // k) * factorial(d // k))
    if count.denominator != 1:
        raise InvariantError(f"Burnside's sum for {types} in degree {d} is {count}, "
                             "not a whole number")
    return count
