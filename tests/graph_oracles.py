"""Independent second algorithms for stable-graph automorphisms and morphisms.

`covercalc.graphs` builds both from one isomorphism enumerator: an
automorphism is a self-isomorphism, and a morphism is the contraction of
the complement of an edge choice followed by an isomorphism onto the
target.  The oracles here search by brute force instead, the way the
package used to:

* `oracle_automorphisms` runs over all class-preserving vertex images,
  keeps those fixing the legs and the edge multiset, and lifts each to
  half-edges through every parallel-class bijection and every edge
  orientation;
* `oracle_morphisms` runs over every ordered choice of source edges and
  every orientation, contracts the complement each time, derives the
  forced vertex map by hand and keeps the candidates that validate.

Two more replay the package's earlier searches, which the package now
narrows:

* `oracle_one_edge_degenerations` builds every loop and vertex-split
  candidate and keeps those that pass the full `StableGraph.validate()`;
* `oracle_generic_AB` walks every stable graph of the space with at most
  |E_A|+|E_B| edges and searches morphisms to A and to B on each.

All emit their results in the order the package promises, so the tests
compare whole lists.
"""

from __future__ import annotations

import itertools

from covercalc.graphs import (
    GenericABGraph,
    GraphError,
    GraphMorphism,
    StableGraph,
    compose_morphisms,
    contract_edges,
    enumerate_morphisms,
    enumerate_stable_graphs,
    isomorphism_as_morphism,
)


def _vertex_classes(graph: StableGraph) -> list[list[int]]:
    """Vertices grouped by (genus, valence, legs), in increasing order."""
    classes: dict[tuple, list[int]] = {}
    for v in range(graph.n_vertices):
        invariant = (graph.genera[v], len(graph.half_edges_at(v)), graph.legs_at(v))
        classes.setdefault(invariant, []).append(v)
    return [classes[k] for k in sorted(classes)]


def _edge_multiset(graph: StableGraph, sigma: tuple[int, ...]) -> list[tuple[int, int]]:
    ends = [
        sorted((sigma[graph.half_edge_vertex[h]], sigma[graph.half_edge_vertex[hp]]))
        for h, hp in graph.edges()
    ]
    return sorted(map(tuple, ends))


def _leg_fixing_vertex_perms(graph: StableGraph):
    classes = _vertex_classes(graph)
    for perms in itertools.product(*[itertools.permutations(cls) for cls in classes]):
        sigma = [0] * graph.n_vertices
        for cls, perm in zip(classes, perms):
            for v, w in zip(cls, perm):
                sigma[v] = w
        if all(sigma[v] == v for v in graph.leg_vertex):
            yield tuple(sigma)


def _half_edge_perms_over(graph: StableGraph, sigma: tuple[int, ...]):
    pair_classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h, hp in graph.edges():
        pair = tuple(sorted((graph.half_edge_vertex[h], graph.half_edge_vertex[hp])))
        pair_classes.setdefault(pair, []).append((h, hp))
    images = []
    for pair in sorted(pair_classes):
        target = tuple(sorted((sigma[pair[0]], sigma[pair[1]])))
        if len(pair_classes.get(target, ())) != len(pair_classes[pair]):
            return
        images.append((pair_classes[pair], pair_classes[target]))
    for assignment in itertools.product(
        *[itertools.permutations(range(len(src))) for src, _ in images]
    ):
        mapping_base: dict[int, tuple[int, int]] = {}
        for (src, tgt), perm in zip(images, assignment):
            for i, (h, hp) in enumerate(src):
                mapping_base[h] = tgt[perm[i]]
        for orient in itertools.product((0, 1), repeat=graph.n_edges):
            hperm = [0] * graph.n_half_edges
            ok = True
            for flip, (h, hp) in zip(orient, graph.edges()):
                k, kp = mapping_base[h]
                if flip:
                    k, kp = kp, k
                u, up = graph.half_edge_vertex[h], graph.half_edge_vertex[hp]
                if (sigma[u], sigma[up]) != (
                    graph.half_edge_vertex[k],
                    graph.half_edge_vertex[kp],
                ):
                    ok = False
                    break
                hperm[h], hperm[hp] = k, kp
            if ok:
                yield tuple(hperm)


def oracle_automorphisms(graph: StableGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All leg-fixing automorphisms (vperm, hperm) as forward maps."""
    base = _edge_multiset(graph, tuple(range(graph.n_vertices)))
    return [
        (sigma, hperm)
        for sigma in _leg_fixing_vertex_perms(graph)
        if _edge_multiset(graph, sigma) == base
        for hperm in _half_edge_perms_over(graph, sigma)
    ]


def oracle_morphisms(source: StableGraph, target: StableGraph) -> list[GraphMorphism]:
    """All morphisms source -> target, one candidate per ordered edge choice
    and orientation, in that order."""
    if source.genus() != target.genus() or source.n_legs != target.n_legs:
        return []
    src_edges = source.edges()
    out = []
    for chosen in itertools.permutations(src_edges, target.n_edges):
        complement = frozenset(e for e in src_edges if e not in chosen)
        contracted, cmap = contract_edges(source, complement)
        for orientations in itertools.product((0, 1), repeat=len(chosen)):
            half_edge_map = [0] * target.n_half_edges
            for (ta, tb), (sa, sb), flip in zip(target.edges(), chosen, orientations):
                half_edge_map[ta], half_edge_map[tb] = (sb, sa) if flip else (sa, sb)
            # the vertex map onto the target is forced by half-edges and legs
            psi: dict[int, int] = {}
            forced = [
                (cmap.vertex_map[source.half_edge_vertex[half_edge_map[h]]], target.half_edge_vertex[h])
                for h in range(target.n_half_edges)
            ] + list(zip(contracted.leg_vertex, target.leg_vertex))
            if contracted.n_vertices == target.n_vertices == 1:
                forced.append((0, 0))
            if any(psi.setdefault(cv, tv) != tv for cv, tv in forced):
                continue
            if len(psi) != contracted.n_vertices:
                continue
            if sorted(psi.values()) != list(range(target.n_vertices)):
                continue
            if any(contracted.genera[cv] != target.genera[tv] for cv, tv in psi.items()):
                continue
            morphism = GraphMorphism(
                source,
                target,
                tuple(psi[cmap.vertex_map[v]] for v in range(source.n_vertices)),
                tuple(half_edge_map),
            )
            try:
                morphism.validate()
            except GraphError:
                continue
            out.append(morphism)
    return out


def oracle_one_edge_degenerations(graph: StableGraph):
    """Genus-reducing loops and vertex splits of a stable graph, vertex by
    vertex, each candidate kept when the whole graph validates."""
    nH = graph.n_half_edges
    for v in range(graph.n_vertices):
        if graph.genera[v] >= 1:
            genera = list(graph.genera)
            genera[v] -= 1
            candidate = StableGraph(
                tuple(genera),
                graph.half_edge_vertex + (v, v),
                graph.involution + (nH + 1, nH),
                graph.leg_vertex,
            )
            try:
                candidate.validate()
                yield candidate
            except GraphError:
                pass
        items = [("half", h) for h in graph.half_edges_at(v)] + [
            ("leg", i) for i in graph.legs_at(v)
        ]
        for g1 in range(graph.genera[v] + 1):
            g2 = graph.genera[v] - g1
            for mask in range(1 << len(items)):
                side2 = [items[i] for i in range(len(items)) if mask >> i & 1]
                genera = list(graph.genera)
                genera[v] = g1
                genera.append(g2)
                w = graph.n_vertices
                hv = list(graph.half_edge_vertex)
                legs = list(graph.leg_vertex)
                for kind, idx in side2:
                    if kind == "half":
                        hv[idx] = w
                    else:
                        legs[idx] = w
                candidate = StableGraph(
                    tuple(genera),
                    tuple(hv) + (v, w),
                    graph.involution + (nH + 1, nH),
                    tuple(legs),
                )
                try:
                    candidate.validate()
                    yield candidate
                except GraphError:
                    pass


def oracle_generic_AB(a: StableGraph, b: StableGraph) -> list[GenericABGraph]:
    """Generic (A,B)-graphs by a walk of the whole space: every stable graph
    with at most |E_A|+|E_B| edges, in canonical-key order, paired with each
    of its generic (gamma->A, gamma->B) maps up to Aut(gamma)."""
    out = []
    for gamma in enumerate_stable_graphs(a.genus(), a.n_legs, a.n_edges + b.n_edges):
        to_a_list = enumerate_morphisms(gamma, a)
        if not to_a_list:
            continue
        to_b_list = enumerate_morphisms(gamma, b)
        if not to_b_list:
            continue
        autos = [isomorphism_as_morphism(gamma, gamma, s) for s in gamma.automorphism_group()]
        seen_pairs = set()
        b_images = [fb.edge_image() for fb in to_b_list]
        for fa in to_a_list:
            a_image = fa.edge_image()
            for fb, b_image in zip(to_b_list, b_images):
                if len(a_image | b_image) != gamma.n_edges:
                    continue
                if (fa.encode(), fb.encode()) in seen_pairs:
                    continue
                seen_pairs.update(
                    (compose_morphisms(fa, s).encode(), compose_morphisms(fb, s).encode())
                    for s in autos
                )
                out.append(GenericABGraph(gamma, fa, fb))
    return out
