"""Hurwitz counts by enumeration, and the degree of the 4-pointed target
map counted on the degenerate fiber.

`oracle_hurwitz_cover_count` is the enumeration `covercalc.hurwitz` used
before the character and Burnside formulas: it fixes the first entry, runs
over every tuple of middle entries in S_d and solves for the last.  It is
the second algorithm the formulas are checked against.

`oracle_transitive_tuples` is the count of transitive product-one tuples
`covercalc.hurwitz` used before the Möbius sum over set partitions:
inclusion–exclusion over the orbit of the point 0, with the Frobenius
formula for all product-one tuples.  It splits each cycle type by
`oracle_splits`, every combination of the parts, deduplicated.

`covercalc.delliptic.segre_excess_contribution("node-profile")` takes the
degree of the target map of covers with profile (a, b) over two points
and one simple branch point to be 2 max(a, b).  `nodal_target_degree`
counts that degree independently, by degeneration bookkeeping over a
two-component nodal target: marked covers are pairs of one-sided tuples
glued along a matching of node fibers, each counted with multiplicity the
product of the node ramification indices and weight 1/#Aut.  This is the
computation that pins the target-map degree conventions the zero-cycle
pipeline uses.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from covercalc.errors import HurwitzError, InvariantError
from covercalc.groups import Perm, compose, cycle_type, identity_perm, invert, perm_from_cycles
from covercalc.hurwitz import (
    _central_character, _normalize_type, character, class_size, is_transitive, partitions,
)
from group_oracles import centralizer

# The enumeration lists every tuple of middle entries, about 10 µs each.
TUPLE_CAP = 10**6


def cycles(a: Perm) -> list[list[int]]:
    """Cycles of the permutation, each starting at its minimal point."""
    seen, out = set(), []
    for i in range(len(a)):
        if i not in seen:
            cyc = [i]
            while a[cyc[-1]] != i:
                cyc.append(a[cyc[-1]])
            seen.update(cyc)
            out.append(cyc)
    return out


def _components(n: int, edges) -> list[set[int]]:
    """Connected components of the graph on 0..n-1 with the given edges."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comps: dict[int, set[int]] = {}
    for x in range(n):
        comps.setdefault(find(x), set()).add(x)
    return list(comps.values())


@lru_cache(maxsize=None)
def _all_perms(d: int) -> tuple[Perm, ...]:
    return tuple(itertools.permutations(range(d)))


@lru_cache(maxsize=None)
def _perms_of_type(d: int, parts: tuple[int, ...]) -> tuple[Perm, ...]:
    return tuple(p for p in _all_perms(d) if cycle_type(p) == parts)


def canonical_of_type(d: int, parts: tuple[int, ...]) -> Perm:
    """A canonical permutation with the given cycle type."""
    out = []
    start = 0
    for p in parts:
        out.append(tuple(range(start, start + p)))
        start += p
    return perm_from_cycles(d, out)


def oracle_hurwitz_cover_count(d: int, cycle_types, weighted: bool = False) -> Fraction:
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
        raise HurwitzError(f"{tuples} tuples of middle branch points to enumerate, "
                           f"over the cap of {TUPLE_CAP}")
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
    label_factor = 2 if a == b else 1
    buckets: dict[tuple, int] = {}
    for rho in _perms_of_type(d, tuple(sorted((a, b), reverse=True))):
        for tau in _perms_of_type(d, (2,) + (1,) * (d - 2)):
            summary = _cover_summary(d, (rho, tau, invert(compose(rho, tau))))
            buckets[summary] = buckets.get(summary, 0) + label_factor
    return buckets


def _cover_summary(d: int, monodromy: tuple[Perm, Perm, Perm]) -> tuple:
    """Per connected component of the cover with monodromy (rho, tau, mu):
    (genus, mu-cycle lengths), sorted."""
    mu = monodromy[-1]
    comp_data = []
    for pts in _components(d, [(x, p[x]) for p in monodromy for x in range(d)]):
        ram = sum(len(pts) - sum(c[0] in pts for c in cycles(p)) for p in monodromy)
        genus2 = ram - 2 * len(pts)  # 2g - 2 over the genus-0 component
        if genus2 % 2:
            raise InvariantError(f"odd Riemann-Hurwitz sum {genus2} on a component")
        mu_cycles = sorted((len(c) for c in cycles(mu) if c[0] in pts), reverse=True)
        comp_data.append((genus2 // 2 + 1, tuple(mu_cycles)))
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
            mu_type = tuple(sorted((l for _, cyc in left for l in cyc), reverse=True))
            total += value
            by_type[mu_type] = by_type.get(mu_type, Fraction(0)) + value
    return {"total": total, "by_node_type": by_type}


def _glued_contribution(left: tuple, right: tuple) -> int:
    """Sum over valid matchings of the node-index product.

    Valid: every node cycle matched to one of equal length, glued curve
    connected and of arithmetic genus 0.
    """
    left_cycles = [(ci, length) for ci, (_, cyc) in enumerate(left) for length in cyc]
    right_cycles = [(ci, length) for ci, (_, cyc) in enumerate(right) for length in cyc]
    if sorted(l for _, l in left_cycles) != sorted(l for _, l in right_cycles):
        return 0
    genus_sum = sum(g for g, _ in left) + sum(g for g, _ in right)
    n_nodes = len(left_cycles)
    n_comps = len(left) + len(right)
    # arithmetic genus of the glued curve
    if genus_sum + n_nodes - n_comps + 1 != 0:
        return 0
    mult = prod(length for _, length in left_cycles)
    total = 0
    for perm in itertools.permutations(range(len(right_cycles))):
        if any(left_cycles[i][1] != right_cycles[perm[i]][1] for i in range(n_nodes)):
            continue
        # connectivity of the bipartite gluing graph
        gluing = [(u, len(left) + right_cycles[perm[i]][0])
                  for i, (u, _) in enumerate(left_cycles)]
        if len(_components(n_comps, gluing)) == 1:
            total += mult
    return total


def oracle_splits(parts: tuple[int, ...], k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each (sub, rest) with sub a sub-multiset of `parts` of size k and rest
    the parts left over, from the set of all 2^len(parts) combinations."""
    subs = {sub for n in range(len(parts) + 1)
            for sub in itertools.combinations(parts, n) if sum(sub) == k}
    return tuple((sub, tuple((Counter(parts) - Counter(sub)).elements())) for sub in sorted(subs))


@lru_cache(maxsize=None)
def _product_one_tuples(d: int, types: tuple[tuple[int, ...], ...]) -> int:
    """A(d; types): the tuples of S_d of these cycle types with product one,
    transitive or not, by the Frobenius formula

        A(d; λ) = (1/d!) Σ_χ χ(1)² Π_i |C_i| χ(C_i) / χ(1)."""
    total = sum(character(shape, (1,) * d) ** 2
                * prod(_central_character(shape, t) for t in types)
                for shape in partitions(d))
    if total % factorial(d):
        raise InvariantError(f"character sum {total} for {types} is not divisible by {d}!")
    return total // factorial(d)


@lru_cache(maxsize=None)
def oracle_transitive_tuples(d: int, types: tuple[tuple[int, ...], ...]) -> int:
    """T(d; types) for sorted descending `types`: a tuple whose orbit of the
    point 0 has k points is a transitive tuple of some types μ_i on that
    orbit and any product-one tuple of types λ_i − μ_i on the other d − k
    points, so

        T(d; λ) = A(d; λ) − Σ_{k<d} C(d−1, k−1) Σ_μ T(k; μ) A(d−k; λ − μ).

    The splits of each type are folded by (sorted subs, sorted rests), as
    splits that differ only in order give equal terms."""
    total = _product_one_tuples(d, types)
    for k in range(1, d):
        terms = Counter({((), ()): 1})
        for t in types:
            after = Counter()
            for (subs, rests), ways in terms.items():
                for sub, rest in oracle_splits(t, k):
                    after[tuple(sorted((*subs, sub))), tuple(sorted((*rests, rest)))] += ways
            terms = after
        for (subs, rests), ways in terms.items():
            total -= (ways * comb(d - 1, k - 1)
                      * oracle_transitive_tuples(k, subs) * _product_one_tuples(d - k, rests))
    return total
