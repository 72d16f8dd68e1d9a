"""Hurwitz counts via permutation monodromy, by exhaustive enumeration.

Covers of the line with prescribed branch profiles correspond to tuples of
permutations with product one generating a transitive subgroup; counting is
up to simultaneous conjugation (plain mode) or weighted by centralizers
(stack-degree mode).

The degeneration bookkeeping for covers of a two-component nodal target is
also implemented: marked covers are pairs of one-sided tuples glued along a
matching of node fibers, each counted with multiplicity the product of the
node ramification indices and weight 1/#Aut.  This is the computation that
pins the target-map degree conventions used by the zero-cycle pipeline.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

from covercalc.errors import InvariantError
from covercalc.groups import (
    Perm,
    centralizer,
    compose,
    cycle_type,
    cycles,
    identity_perm,
    invert,
    perm_from_cycles,
)


class HurwitzError(ValueError):
    pass


def _normalize_type(d: int, ctype) -> tuple[int, ...]:
    parts = tuple(sorted((int(x) for x in ctype), reverse=True))
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


def hurwitz_cover_count(
    d: int,
    cycle_types,
    target_genus: int = 0,
    weighted: bool = False,
) -> Fraction:
    """Count tuples (s_1..s_k) of the given cycle types with product one,
    generating a transitive subgroup of S_d, up to simultaneous conjugation.

    With `weighted=True` each class is weighted by 1/#centralizer (the
    stack-degree convention).  Enumeration bound: d <= 7.
    """
    if target_genus != 0:
        raise HurwitzError("only genus-0 targets are enumerated")
    if d < 1 or d > 7:
        raise HurwitzError(f"degree {d} outside the enumeration range 1..7")
    types = [_normalize_type(d, c) for c in cycle_types]
    if len(types) < 1:
        raise HurwitzError("at least one branch point is required")
    first = canonical_of_type(d, types[0])
    z_first = centralizer(_all_perms(d), (first,))
    orbit_count = Fraction(0)
    weighted_count = Fraction(0)
    middle_types = types[1:-1]
    last_type = types[-1] if len(types) >= 2 else None
    for middle in itertools.product(*[_perms_of_type(d, t) for t in middle_types]):
        prod = first
        for m in middle:
            prod = compose(prod, m)
        if last_type is None:
            if prod != identity_perm(d):
                continue
            tup = (first,)
        else:
            last = invert(prod)
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


def totally_ramified_profile_count(a: int, b: int) -> Fraction:
    """Covers of the line of degree a+b, totally ramified over one point,
    simply ramified over a second, with profile (a, b) over a third."""
    d = a + b
    simple = [2] + [1] * (d - 2)
    return hurwitz_cover_count(d, [[d], simple, [a, b]])


# ---------------------------------------------------------------------------
# degeneration bookkeeping over a two-component nodal target


def _one_sided_summaries(a: int, b: int) -> dict:
    """Summaries of covers of one target component, bucketed with counts.

    A one-sided cover is a pair (rho, tau) in S_d with rho of type (a, b)
    (the marked profile fiber) and tau a transposition; the node monodromy
    is mu = (rho tau)^{-1}.  The summary records, per connected component
    of the cover: its genus and the lengths of its mu-cycles, tagged so
    matchings can be enumerated.  Counts include the 2 markings of the
    profile fiber when a = b.
    """
    d = a + b
    simple_type = tuple(sorted([2] + [1] * (d - 2), reverse=True))
    profile = tuple(sorted((a, b), reverse=True))
    label_factor = 2 if a == b else 1
    buckets: dict[tuple, int] = {}
    for rho in _perms_of_type(d, profile):
        for tau in _perms_of_type(d, simple_type):
            mu = invert(compose(rho, tau))
            summary = _cover_summary(d, rho, tau, mu)
            buckets[summary] = buckets.get(summary, 0) + label_factor
    return buckets


def _cover_summary(d: int, rho: Perm, tau: Perm, mu: Perm) -> tuple:
    # connected components of the subgroup generated by rho, tau, mu
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in (rho, tau, mu):
        for x in range(d):
            rx, ry = find(x), find(p[x])
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    comp_of = {x: find(x) for x in range(d)}
    comps = sorted(set(comp_of.values()))
    comp_data = []
    for c in comps:
        pts = [x for x in range(d) if comp_of[x] == c]
        size = len(pts)
        ram = 0
        mu_cycles = []
        for p in (rho, tau, mu):
            n_cycles = sum(1 for cyc in cycles(p) if comp_of[cyc[0]] == c)
            ram += size - n_cycles
        for cyc in cycles(mu):
            if comp_of[cyc[0]] == c:
                mu_cycles.append(len(cyc))
        genus2 = -2 * size + ram  # 2g - 2 over the genus-0 component
        if genus2 % 2:
            raise InvariantError(f"odd Riemann-Hurwitz sum {genus2} on a component")
        comp_data.append((genus2 // 2 + 1, tuple(sorted(mu_cycles, reverse=True))))
    return tuple(sorted(comp_data, reverse=True))


def nodal_target_degree(a: int, b: int) -> dict:
    """Degree of the 4-pointed target map computed on the degenerate fiber.

    The target is two lines glued at a node, each carrying one simple branch
    point and one (a, b)-profile point.  Marked admissible covers of it are
    (left cover, right cover, matching of node fibers); each contributes
    (product of node ramification indices) / #Aut.  Returns the total and
    the subtotal per node-fiber cycle type, which exhibits the lemma-level
    bookkeeping: one cover type totally ramified over the node contributing
    a+b, and for a != b one of type (|a-b|, min, min) contributing |a-b|
    after the 1/min^2 automorphism correction.
    """
    d = a + b
    buckets = _one_sided_summaries(a, b)
    dd = Fraction(1, factorial(d) ** 2)
    total = Fraction(0)
    by_type: dict[tuple[int, ...], Fraction] = {}
    for left, left_count in buckets.items():
        for right, right_count in buckets.items():
            contribution = _glued_contribution(left, right)
            if contribution == 0:
                continue
            value = dd * left_count * right_count * contribution
            mu_type = tuple(
                sorted((l for _, cyc in left for l in cyc), reverse=True)
            )
            total += value
            by_type[mu_type] = by_type.get(mu_type, Fraction(0)) + value
    return {"total": total, "by_node_type": by_type}


def _glued_contribution(left: tuple, right: tuple) -> int:
    """Sum over valid matchings of the node-index product.

    Valid: every node cycle matched to one of equal length, glued curve
    connected and of arithmetic genus 0.
    """
    left_cycles = [
        (ci, length) for ci, (_, cyc) in enumerate(left) for length in cyc
    ]
    right_cycles = [
        (ci, length) for ci, (_, cyc) in enumerate(right) for length in cyc
    ]
    if sorted(l for _, l in left_cycles) != sorted(l for _, l in right_cycles):
        return 0
    genus_sum = sum(g for g, _ in left) + sum(g for g, _ in right)
    n_nodes = len(left_cycles)
    n_comps = len(left) + len(right)
    # arithmetic genus of the glued curve
    if genus_sum + n_nodes - n_comps + 1 != 0:
        return 0
    mult = 1
    for _, length in left_cycles:
        mult *= length
    total = 0
    for perm in itertools.permutations(range(len(right_cycles))):
        if any(
            left_cycles[i][1] != right_cycles[perm[i]][1]
            for i in range(len(left_cycles))
        ):
            continue
        # connectivity of the bipartite gluing graph
        n_left = len(left)
        nodes = list(range(n_left + len(right)))
        parent = nodes[:]

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(len(left_cycles)):
            u = left_cycles[i][0]
            v = n_left + right_cycles[perm[i]][0]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        if len({find(x) for x in nodes}) == 1:
            total += mult
    return total
