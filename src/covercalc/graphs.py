"""Stable graphs, their morphisms, and generic two-sided degenerations.

A stable graph is the dual-graph datum of a nodal curve: vertices carry
genera, half-edges pair into nodes via a fixed-point-free involution, and
legs are ordered marked points.  Morphisms go from the degenerate graph to
the less degenerate one: a vertex surjection together with a half-edge
injection in the opposite direction.

Every bijection comes from one isomorphism enumerator,
`StableGraph.isomorphisms`.  An automorphism is a self-isomorphism, and a
morphism is a contraction followed by an isomorphism: contract the source
edges outside a choice of |E(target)| edges, then map the contracted graph
isomorphically onto the target.

Enumeration is exhaustive and desk-scale; duplicate elimination goes
through a canonical key (minimum over genus/valence-preserving vertex
relabelings), falling back on nothing fancier because the graphs involved
stay tiny.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from covercalc.errors import InvariantError
from covercalc.groups import invert


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class StableGraph:
    """Vertices with genera, half-edges with involution, ordered legs."""

    genera: tuple[int, ...]
    half_edge_vertex: tuple[int, ...]
    involution: tuple[int, ...]
    leg_vertex: tuple[int, ...]

    # -- structure ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_half_edges(self) -> int:
        return len(self.half_edge_vertex)

    @property
    def n_legs(self) -> int:
        return len(self.leg_vertex)

    @property
    def n_edges(self) -> int:
        return self.n_half_edges // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (h, h') pairs with h < h', in increasing order."""
        return tuple(
            (h, self.involution[h])
            for h in range(self.n_half_edges)
            if h < self.involution[h]
        )

    def edge_of(self, h: int) -> tuple[int, int]:
        hp = self.involution[h]
        return (h, hp) if h < hp else (hp, h)

    def half_edges_at(self, v: int) -> tuple[int, ...]:
        return tuple(h for h, w in enumerate(self.half_edge_vertex) if w == v)

    def legs_at(self, v: int) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.leg_vertex) if w == v)

    def valence(self, v: int) -> int:
        return len(self.half_edges_at(v)) + len(self.legs_at(v))

    def vertex_points(self, v: int) -> tuple[tuple[str, int], ...]:
        """Marked points of the moduli factor at v: legs first, then half-edges."""
        return tuple(("leg", i) for i in self.legs_at(v)) + tuple(
            ("half", h) for h in self.half_edges_at(v)
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        nv, nh = self.n_vertices, self.n_half_edges
        if nv == 0:
            raise GraphError("a stable graph needs at least one vertex")
        if any(g < 0 for g in self.genera):
            raise GraphError("vertex genera must be non-negative")
        if len(self.involution) != nh:
            raise GraphError("involution must be defined on all half-edges")
        if any(not 0 <= v < nv for v in self.half_edge_vertex):
            raise GraphError("half-edge attached to a missing vertex")
        if any(not 0 <= v < nv for v in self.leg_vertex):
            raise GraphError("leg attached to a missing vertex")
        for h in range(nh):
            if self.involution[h] == h:
                raise GraphError(f"involution fixes half-edge {h}")
            if self.involution[self.involution[h]] != h:
                raise GraphError("involution is not an involution")
        for v in range(nv):
            if 2 * self.genera[v] - 2 + self.valence(v) <= 0:
                raise GraphError(f"vertex {v} violates stability")
        if not self.is_connected():
            raise GraphError("graph is not connected")

    def is_connected(self) -> bool:
        if self.n_vertices == 1:
            return True
        adj: dict[int, set[int]] = {v: set() for v in range(self.n_vertices)}
        for h, hp in self.edges():
            u, v = self.half_edge_vertex[h], self.half_edge_vertex[hp]
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n_vertices

    def genus(self) -> int:
        """First Betti number plus the sum of the vertex genera."""
        h1 = self.n_edges - self.n_vertices + 1
        return h1 + sum(self.genera)

    # -- canonical form ----------------------------------------------------

    def _vertex_invariant(self, v: int) -> tuple:
        return (
            self.genera[v],
            len(self.half_edges_at(v)),
            self.legs_at(v),
        )

    def _relabel_key(self, sigma: tuple[int, ...]) -> tuple:
        """Key of the graph with vertex v renamed sigma[v]."""
        genera = [0] * self.n_vertices
        for v, g in enumerate(self.genera):
            genera[sigma[v]] = g
        edge_multiset = sorted(
            tuple(
                sorted(
                    (
                        sigma[self.half_edge_vertex[h]],
                        sigma[self.half_edge_vertex[hp]],
                    )
                )
            )
            for h, hp in self.edges()
        )
        legs = tuple(sigma[v] for v in self.leg_vertex)
        return (tuple(genera), tuple(map(tuple, edge_multiset)), legs)

    def _invariant_classes(self) -> dict[tuple, list[int]]:
        """Vertices grouped by (genus, valence, legs), in increasing invariant order."""
        classes: dict[tuple, list[int]] = {}
        for v in range(self.n_vertices):
            classes.setdefault(self._vertex_invariant(v), []).append(v)
        return {k: classes[k] for k in sorted(classes)}

    def _parallel_classes(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Edges grouped by their sorted pair of end vertices, in increasing order."""
        classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for h, hp in self.edges():
            ends = (self.half_edge_vertex[h], self.half_edge_vertex[hp])
            classes.setdefault((min(ends), max(ends)), []).append((h, hp))
        return {pair: classes[pair] for pair in sorted(classes)}

    def canonical_key(self) -> tuple:
        """Hashable isomorphism invariant that determines the graph up to iso.

        Minimum of the relabel key over all vertex bijections sending each
        (genus, valence, legs) invariant class onto its block of positions.
        """
        classes = list(self._invariant_classes().values())
        blocks, off = [], 0
        for cls in classes:
            blocks.append(range(off, off + len(cls)))
            off += len(cls)
        best = min(self._relabel_key(s) for s in _class_bijections(classes, blocks))
        return (self.n_legs, best)

    # -- isomorphisms ------------------------------------------------------

    def isomorphisms(self, other: "StableGraph"):
        """All isomorphisms onto `other` as forward maps (vperm, hperm).

        vperm[v] and hperm[h] are the images of vertex v and half-edge h;
        genera, attachments and the involution are carried over and legs
        are fixed pointwise.  Ordered by vperm (class by class, images in
        lexicographic order), then by hperm as `_half_edge_perms_over` meets
        them.
        """
        mine, theirs = self._invariant_classes(), other._invariant_classes()
        shape = [(k, len(c)) for k, c in mine.items()]
        if shape != [(k, len(c)) for k, c in theirs.items()]:
            return
        target_key = other._relabel_key(tuple(range(other.n_vertices)))
        for sigma in _class_bijections(mine.values(), theirs.values()):
            if self._relabel_key(sigma) == target_key:
                for hperm in self._half_edge_perms_over(sigma, other):
                    yield sigma, hperm

    def automorphism_group(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All self-isomorphisms (vperm, hperm): legs fixed pointwise,
        half-edges free to move within and between edges."""
        return list(self.isomorphisms(self))

    def _half_edge_perms_over(self, sigma: tuple[int, ...], other: "StableGraph"):
        """Half-edge bijections onto `other` lying over the vertex bijection.

        The parallel edges between {u, v} go onto those between
        {sigma u, sigma v} in every order; then each edge takes, in turn,
        the orientations that match sigma on its two ends.
        """
        theirs = other._parallel_classes()
        images = []
        for (u, v), src in self._parallel_classes().items():
            tgt = theirs.get((min(sigma[u], sigma[v]), max(sigma[u], sigma[v])), [])
            if len(tgt) != len(src):
                return
            images.append((src, tgt))
        hv, other_hv = self.half_edge_vertex, other.half_edge_vertex
        for assignment in itertools.product(
            *[itertools.permutations(tgt) for _, tgt in images]
        ):
            edge_image = {
                h: edge
                for (src, _), tgts in zip(images, assignment)
                for (h, _), edge in zip(src, tgts)
            }
            choices = []
            for h, hp in self.edges():
                k, kp = edge_image[h]
                ends = (sigma[hv[h]], sigma[hv[hp]])
                choices.append([
                    (h, a, hp, b) for a, b in ((k, kp), (kp, k))
                    if ends == (other_hv[a], other_hv[b])
                ])
            for choice in itertools.product(*choices):
                hperm = [0] * self.n_half_edges
                for h, a, hp, b in choice:
                    hperm[h], hperm[hp] = a, b
                yield tuple(hperm)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertex_genera": list(self.genera),
            "half_edge_vertex": list(self.half_edge_vertex),
            "involution_pairs": [list(e) for e in self.edges()],
            "legs": [[i + 1, v] for i, v in enumerate(self.leg_vertex)],
        }

    @staticmethod
    def from_json(data: dict) -> "StableGraph":
        genera = tuple(data["vertex_genera"])
        hv = tuple(data["half_edge_vertex"])
        inv = [-1] * len(hv)
        for h, hp in data["involution_pairs"]:
            if not (0 <= h < len(hv) and 0 <= hp < len(hv)) or h == hp:
                raise GraphError(f"involution pair {[h, hp]} is out of range or self-paired")
            if inv[h] != -1 or inv[hp] != -1:
                raise GraphError(f"involution pair {[h, hp]} reuses a half-edge")
            inv[h], inv[hp] = hp, h
        if -1 in inv:
            raise GraphError(f"half-edge {inv.index(-1)} is in no involution pair")
        legs_sorted = sorted(data["legs"])
        if [lab for lab, _ in legs_sorted] != list(range(1, len(legs_sorted) + 1)):
            raise GraphError("leg labels must be 1..n")
        graph = StableGraph(genera, hv, tuple(inv), tuple(v for _, v in legs_sorted))
        graph.validate()
        return graph


def _class_bijections(classes, targets):
    """Vertex maps sending each class onto its target block, one class after
    another, each block's images in lexicographic order."""
    classes = list(classes)
    n = sum(map(len, classes))
    for images in itertools.product(*[itertools.permutations(t) for t in targets]):
        sigma = [0] * n
        for cls, image in zip(classes, images):
            for v, w in zip(cls, image):
                sigma[v] = w
        yield tuple(sigma)


def trivial_graph(g: int, n: int) -> StableGraph:
    graph = StableGraph((g,), (), (), tuple([0] * n))
    graph.validate()
    return graph


@dataclass(frozen=True)
class GraphMorphism:
    """A degeneration morphism: vertex surjection plus half-edge injection."""

    source: StableGraph
    target: StableGraph
    vertex_map: tuple[int, ...]  # V(source) -> V(target)
    half_edge_map: tuple[int, ...]  # H(target) -> H(source), injective

    def validate(self) -> None:
        src, tgt = self.source, self.target
        if len(self.vertex_map) != src.n_vertices:
            raise GraphError("vertex map must be defined on the whole source")
        if set(self.vertex_map) != set(range(tgt.n_vertices)):
            raise GraphError("vertex map must be surjective")
        if len(self.half_edge_map) != tgt.n_half_edges:
            raise GraphError("half-edge map must be defined on all target half-edges")
        if len(set(self.half_edge_map)) != len(self.half_edge_map):
            raise GraphError("half-edge map must be injective")
        for h in range(tgt.n_half_edges):
            if self.half_edge_map[tgt.involution[h]] != src.involution[self.half_edge_map[h]]:
                raise GraphError("half-edge map does not intertwine the involutions")
            if self.vertex_map[src.half_edge_vertex[self.half_edge_map[h]]] != tgt.half_edge_vertex[h]:
                raise GraphError("half-edge map does not respect attachments")
        if src.n_legs != tgt.n_legs:
            raise GraphError("leg counts differ")
        for i in range(src.n_legs):
            if self.vertex_map[src.leg_vertex[i]] != tgt.leg_vertex[i]:
                raise GraphError(f"leg {i} is not preserved")
        image = set(self.half_edge_map)
        fibers: dict[int, list[int]] = {v: [] for v in range(tgt.n_vertices)}
        for v, w in enumerate(self.vertex_map):
            fibers[w].append(v)
        for h, hp in src.edges():
            if h in image:
                continue
            u, up = src.half_edge_vertex[h], src.half_edge_vertex[hp]
            if self.vertex_map[u] != self.vertex_map[up]:
                raise GraphError("contracted edge joins different fibers")
        for w, fiber in fibers.items():
            sub_edges = [
                (h, hp)
                for h, hp in src.edges()
                if h not in image and self.vertex_map[src.half_edge_vertex[h]] == w
            ]
            # connectivity of the fiber through contracted edges
            reach = {fiber[0]}
            changed = True
            while changed:
                changed = False
                for h, hp in sub_edges:
                    u, up = src.half_edge_vertex[h], src.half_edge_vertex[hp]
                    if (u in reach) != (up in reach):
                        reach.update((u, up))
                        changed = True
            if set(fiber) != reach:
                raise GraphError(f"fiber over vertex {w} is not connected")
            fiber_genus = len(sub_edges) - len(fiber) + 1 + sum(
                src.genera[v] for v in fiber
            )
            if fiber_genus != tgt.genera[w]:
                raise GraphError(f"fiber over vertex {w} has wrong genus")

    def edge_image(self) -> frozenset[tuple[int, int]]:
        """Edges of the source hit by the target's edges."""
        return frozenset(self.source.edge_of(h) for h in self.half_edge_map)

    def encode(self) -> tuple:
        return (self.vertex_map, self.half_edge_map)


def compose_morphisms(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    """outer o inner, for inner: G -> D and outer: D -> A."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise GraphError("morphisms are not composable")
    return GraphMorphism(
        inner.source,
        outer.target,
        tuple(outer.vertex_map[v] for v in inner.vertex_map),
        tuple(inner.half_edge_map[h] for h in outer.half_edge_map),
    )


def isomorphism_as_morphism(
    source: StableGraph, target: StableGraph, iso: tuple[tuple[int, ...], tuple[int, ...]]
) -> GraphMorphism:
    """An isomorphism (vperm, hperm) onto target as a morphism, whose
    half-edge map runs backwards."""
    vperm, hperm = iso
    return GraphMorphism(source, target, vperm, invert(hperm))


def contract_edges(
    graph: StableGraph, edge_set: frozenset[tuple[int, int]] | set[tuple[int, int]]
) -> tuple[StableGraph, GraphMorphism]:
    """Contract a set of edges; loops raise genus, bridges merge vertices.

    Returns the contracted graph and the morphism from `graph` onto it.
    """
    edge_set = {graph.edge_of(h) for h, _ in edge_set} if edge_set else set()
    parent = list(range(graph.n_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # merge along a spanning forest of the contracted set; the leftover
    # contracted edges are loops and each raises the merged genus by one
    pending = sorted(edge_set)
    leftover = []
    for h, hp in pending:
        u, up = find(graph.half_edge_vertex[h]), find(graph.half_edge_vertex[hp])
        if u != up:
            parent[max(u, up)] = min(u, up)
        else:
            leftover.append((h, hp))
    roots = sorted({find(v) for v in range(graph.n_vertices)})
    new_index = {r: i for i, r in enumerate(roots)}
    genera = [0] * len(roots)
    for v in range(graph.n_vertices):
        genera[new_index[find(v)]] += graph.genera[v]
    for h, hp in leftover:
        genera[new_index[find(graph.half_edge_vertex[h])]] += 1
    kept = [h for h in range(graph.n_half_edges) if graph.edge_of(h) not in edge_set]
    new_h_index = {h: i for i, h in enumerate(kept)}
    hv = tuple(new_index[find(graph.half_edge_vertex[h])] for h in kept)
    inv = tuple(new_h_index[graph.involution[h]] for h in kept)
    legs = tuple(new_index[find(v)] for v in graph.leg_vertex)
    contracted = StableGraph(tuple(genera), hv, inv, legs)
    contracted.validate()
    morphism = GraphMorphism(
        graph,
        contracted,
        tuple(new_index[find(v)] for v in range(graph.n_vertices)),
        tuple(kept),
    )
    morphism.validate()
    return contracted, morphism


def enumerate_morphisms(source: StableGraph, target: StableGraph) -> list[GraphMorphism]:
    """All morphisms source -> target (all target-structures on source).

    Each is the contraction of the source edges outside a choice of
    |E(target)| edges, followed by an isomorphism onto the target.  They
    come ordered by the source edges the target edges hit, then by which
    of them are hit reversed (target half-edge h < h' onto source s > s').
    """
    if source.genus() != target.genus() or source.n_legs != target.n_legs:
        return []
    src_edges = source.edges()
    out = []
    for chosen in itertools.combinations(src_edges, target.n_edges):
        contracted, cmap = contract_edges(source, set(src_edges) - set(chosen))
        for iso in contracted.isomorphisms(target):
            morphism = compose_morphisms(isomorphism_as_morphism(contracted, target, iso), cmap)
            try:
                morphism.validate()
            except GraphError as err:
                raise InvariantError(f"contraction followed by isomorphism: {err}") from err
            out.append(morphism)
    edge_index = {h: i for i, edge in enumerate(src_edges) for h in edge}

    def order(m: GraphMorphism) -> tuple:
        hits = [(m.half_edge_map[h], m.half_edge_map[hp]) for h, hp in target.edges()]
        return [edge_index[s] for s, _ in hits], [s > sp for s, sp in hits]

    return sorted(out, key=order)


@dataclass(frozen=True)
class GenericABGraph:
    """A mutual degeneration of A and B whose edges all come from A or B."""

    gamma: StableGraph
    to_A: GraphMorphism
    to_B: GraphMorphism

    def common_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges of gamma in the image of both edge maps (the excess edges)."""
        common = self.to_A.edge_image() & self.to_B.edge_image()
        return tuple(sorted(common))


@lru_cache(maxsize=None)
def enumerate_stable_graphs(g: int, n: int, max_edges: int) -> tuple[StableGraph, ...]:
    """All stable graphs of genus g with n legs and at most max_edges edges.

    Breadth-first closure under one-edge degenerations (vertex splitting and
    genus-reducing loops), starting from the smooth graph; complete because
    every stable graph contracts one edge at a time down to it.
    """
    try:
        start = trivial_graph(g, n)
    except GraphError:
        return ()
    seen = {start.canonical_key(): start}
    frontier = [start]
    for _ in range(max_edges):
        nxt = []
        for graph in frontier:
            for degen in _one_edge_degenerations(graph):
                key = degen.canonical_key()
                if key not in seen:
                    seen[key] = degen
                    nxt.append(degen)
        frontier = nxt
    return tuple(seen[k] for k in sorted(seen))


def _one_edge_degenerations(graph: StableGraph):
    nH = graph.n_half_edges
    for v in range(graph.n_vertices):
        # genus-reducing loop
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
        # vertex splitting
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


def enumerate_generic_AB(a: StableGraph, b: StableGraph) -> list[GenericABGraph]:
    """Complete, duplicate-free list of generic (A,B)-graphs.

    Triples (gamma, gamma->A, gamma->B) with every edge of gamma coming from
    A or B, up to isomorphism of triples.
    """
    if a.genus() != b.genus() or a.n_legs != b.n_legs:
        raise GraphError("A and B must have the same genus and leg count")
    out = []
    for gamma in enumerate_stable_graphs(a.genus(), a.n_legs, a.n_edges + b.n_edges):
        to_a_list = enumerate_morphisms(gamma, a)
        if not to_a_list:
            continue
        to_b_list = enumerate_morphisms(gamma, b)
        if not to_b_list:
            continue
        autos = [isomorphism_as_morphism(gamma, gamma, s) for s in gamma.automorphism_group()]
        # pairs met in the Aut(gamma)-orbit of a pair already emitted
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
