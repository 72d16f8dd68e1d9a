"""Hurwitz counts via permutation monodromy, by exhaustive enumeration.

Covers of the line with prescribed branch profiles correspond to tuples of
permutations with product one generating a transitive subgroup; counting is
up to simultaneous conjugation (plain mode) or weighted by centralizers
(stack-degree mode).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from covercalc.errors import HurwitzError
from covercalc.groups import (
    Perm,
    centralizer,
    compose,
    cycle_type,
    identity_perm,
    invert,
    perm_from_cycles,
)


# The enumeration visits each tuple of middle entries at about 10 us a
# tuple: the cap keeps a call under about 10 s (degree 6 with 7 simple
# branch points is 15^5 = 759,375 tuples; with 8 it would be 11.4 million).
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


def canonical_of_type(d: int, parts: tuple[int, ...]) -> Perm:
    """A canonical permutation with the given cycle type."""
    out = []
    start = 0
    for p in parts:
        out.append(tuple(range(start, start + p)))
        start += p
    return perm_from_cycles(d, out)


def class_size(d: int, parts: tuple[int, ...]) -> int:
    """The number of permutations of S_d with cycle type `parts`: d!/z,
    z = prod over part sizes i of i^m_i m_i!, m_i parts of size i."""
    z = prod(i**m * factorial(m) for i, m in Counter(parts).items())
    return factorial(d) // z


@lru_cache(maxsize=None)
def _all_perms(d: int) -> tuple[Perm, ...]:
    return tuple(itertools.permutations(range(d)))


@lru_cache(maxsize=None)
def _perms_of_type(d: int, parts: tuple[int, ...]) -> tuple[Perm, ...]:
    return tuple(p for p in _all_perms(d) if cycle_type(p) == parts)


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


def hurwitz_cover_count(d: int, cycle_types, weighted: bool = False) -> Fraction:
    """Count tuples (s_1..s_k) of the given cycle types with product one,
    generating a transitive subgroup of S_d, up to simultaneous conjugation.

    With `weighted=True` each class is weighted by 1/#centralizer (the
    stack-degree convention).  Enumeration bounds: d <= 7, and at most
    TUPLE_CAP tuples of middle entries, the product of their class sizes.
    """
    if d < 1 or d > 7:
        raise HurwitzError(f"degree {d} outside the enumeration range 1..7")
    if not isinstance(cycle_types, (list, tuple)):
        raise HurwitzError(f"cycle types {cycle_types!r} are not a list of lists")
    types = [_normalize_type(d, c) for c in cycle_types]
    if len(types) < 1:
        raise HurwitzError("at least one branch point is required")
    middle_types = types[1:-1]
    tuples = prod(class_size(d, t) for t in middle_types)
    if tuples > TUPLE_CAP:
        raise HurwitzError(
            f"{tuples} tuples of middle branch points to enumerate, over the cap of "
            f"{TUPLE_CAP}; counts this large need the character formula (ROADMAP item 5)"
        )
    first = canonical_of_type(d, types[0])
    z_first = centralizer(_all_perms(d), (first,))
    orbit_count = Fraction(0)
    weighted_count = Fraction(0)
    last_type = types[-1] if len(types) >= 2 else None
    for middle in itertools.product(*[_perms_of_type(d, t) for t in middle_types]):
        product = first
        for m in middle:
            product = compose(product, m)
        if last_type is None:
            if product != identity_perm(d):
                continue
            tup = (first,)
        else:
            last = invert(product)
            if cycle_type(last) != last_type:
                continue
            tup = (first, *middle, last)
        if not is_transitive(d, tup):
            continue
        # z_first commutes with tup[0], and tup[-1] is the inverse of the
        # product of the others, so the middle entries decide
        stab = centralizer(z_first, middle)
        orbit_count += Fraction(len(stab), len(z_first))
        weighted_count += Fraction(1, len(z_first))
    return weighted_count if weighted else orbit_count
