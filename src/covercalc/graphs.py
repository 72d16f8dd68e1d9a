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
isomorphically onto the target.  The parts a contraction merges, with
their genera, and whether a graph is connected, come from one routine,
`_parts`, over the package's one orbit routine, `groups.orbit_partition`.

Graphs are built by one-edge degenerations (a genus-reducing loop or a
vertex split) and told apart by a canonical key: the least edge list over
the vertex relabelings that keep each (genus, valence, legs) class
together.  Each class is labelled by the graph the breadth-first walk from
the smooth graph first meets in it.  The walk meets classes in
lexicographic order of their place, the path of degeneration indices that
leads to them, so a recursion memoized per class finds that graph without
the walk: the first degeneration into the class of the graph of the class
one edge below with the least place.  The graphs stay desk-sized, so the
key needs nothing finer than those classes.

The classes of the generic (A,B)-graphs are built from matchings of E_A
with E_B (Graber–Pandharipande 2003, App. A), not found by a walk.  The k
edges both maps hit leave a contraction that A and B share, and the other
edges come from B alone: they open A's vertices into stable graphs of
those vertices' own spaces.  A glued graph is kept when contracting A's
unmatched edges gives B.

A morphism's `encode()` is its pair (vertex map, half-edge map), and one
routine, `_compose_maps`, composes such pairs; `compose_morphisms` wraps it
for morphisms, and `enumerate_morphisms` builds and validates each morphism
it returns once.  The (A,B) search keeps a pair (gamma -> A, gamma -> B)
when the bit masks of its two edge images cover gamma's edges and the pair
is not in the Aut(gamma)-orbit of one already kept.  Those orbits are
composed on the encoded pairs, each map's orbit once, and no morphism is
built for them.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import NamedTuple

from covercalc.errors import GraphError, InvariantError, json_fields, json_list
from covercalc.groups import invert, orbit_partition


class _StableGraphFields(NamedTuple):
    genera: tuple[int, ...]
    half_edge_vertex: tuple[int, ...]
    involution: tuple[int, ...]
    leg_vertex: tuple[int, ...]


class StableGraph(_StableGraphFields):
    """Vertices with genera, half-edges with involution, ordered legs.

    A record like every other one in the package: equal fields give equal
    graphs with equal hashes, and no field can be rebound.  Unlike the others
    it keeps an instance `__dict__`, which holds its `cached_property` caches.
    """

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
        return self._edges

    @cached_property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((h, hp) for h, hp in enumerate(self.involution) if h < hp)

    def edge_of(self, h: int) -> tuple[int, int]:
        hp = self.involution[h]
        return (h, hp) if h < hp else (hp, h)

    @cached_property
    def _incidence(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Half-edges and legs at each vertex, built once per graph; entries
        naming a missing vertex are left for `validate` to reject."""
        halves: list[list[int]] = [[] for _ in self.genera]
        legs: list[list[int]] = [[] for _ in self.genera]
        for points, attached in ((halves, self.half_edge_vertex), (legs, self.leg_vertex)):
            for x, v in enumerate(attached):
                if 0 <= v < len(points):
                    points[v].append(x)
        return tuple(map(tuple, halves)), tuple(map(tuple, legs))

    def half_edges_at(self, v: int) -> tuple[int, ...]:
        return self._incidence[0][v]

    def legs_at(self, v: int) -> tuple[int, ...]:
        return self._incidence[1][v]

    def valence(self, v: int) -> int:
        return len(self._incidence[0][v]) + len(self._incidence[1][v])

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
        if len(_parts(self, self.edges())[1]) > 1:
            raise GraphError("graph is not connected")

    def genus(self) -> int:
        """First Betti number plus the sum of the vertex genera."""
        h1 = self.n_edges - self.n_vertices + 1
        return h1 + sum(self.genera)

    # -- canonical form ----------------------------------------------------

    def _vertex_invariants(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """(genus, valence, legs) of each vertex, the valence counting
        half-edges only."""
        valence = [0] * self.n_vertices
        for v in self.half_edge_vertex:
            valence[v] += 1
        legs: list[tuple[int, ...]] = [()] * self.n_vertices
        for i, v in enumerate(self.leg_vertex):
            legs[v] += (i,)
        return list(zip(self.genera, valence, legs))

    def _relabeled_edges(self, sigma: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """Sorted end pairs of the edges once vertex v is renamed sigma[v]."""
        hv = self.half_edge_vertex
        pairs = []
        for h, hp in self.edges():
            a, b = sigma[hv[h]], sigma[hv[hp]]
            pairs.append((a, b) if a <= b else (b, a))
        pairs.sort()
        return tuple(pairs)

    @cached_property
    def _invariant_classes(self) -> dict[tuple, list[int]]:
        """Vertices grouped by (genus, valence, legs), in increasing invariant
        order, built once per graph."""
        classes: dict[tuple, list[int]] = {}
        for v, invariant in enumerate(self._vertex_invariants()):
            classes.setdefault(invariant, []).append(v)
        return {k: classes[k] for k in sorted(classes)}

    def _signature(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """The sorted vertex invariants: the same for isomorphic graphs, and
        cheaper than the canonical key."""
        return sorted(self._vertex_invariants())

    def _parallel_classes(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Edges grouped by their sorted pair of end vertices, in increasing order."""
        classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for h, hp in self.edges():
            ends = (self.half_edge_vertex[h], self.half_edge_vertex[hp])
            classes.setdefault((min(ends), max(ends)), []).append((h, hp))
        return {pair: classes[pair] for pair in sorted(classes)}

    def canonical_key(self) -> tuple:
        """Hashable isomorphism invariant that determines the graph up to iso.

        (n_legs, (genera, edges, legs)) of the relabeling that sends each
        (genus, valence, legs) invariant class onto its block of positions,
        in increasing invariant order, with the least sorted edge list.  A
        vertex with a leg is alone in its class, so the genera and the legs
        read the same under every such relabeling, and only the edges are
        minimized.
        """
        classes = self._invariant_classes
        genera, legs, blocks = [], [0] * self.n_legs, []
        for (g, _, at), cls in classes.items():
            for i in at:
                legs[i] = len(genera)
            blocks.append(range(len(genera), len(genera) + len(cls)))
            genera.extend([g] * len(cls))
        edges = min(self._relabeled_edges(s) for s in _class_bijections(classes.values(), blocks))
        return (self.n_legs, (tuple(genera), edges, tuple(legs)))

    # -- isomorphisms ------------------------------------------------------

    def isomorphisms(self, other: "StableGraph"):
        """All isomorphisms onto `other` as forward maps (vperm, hperm).

        vperm[v] and hperm[h] are the images of vertex v and half-edge h;
        genera, attachments and the involution are carried over and legs
        are fixed pointwise.  Ordered by vperm (class by class, images in
        lexicographic order), then by hperm as `_half_edge_perms_over` meets
        them.
        """
        mine, theirs = self._invariant_classes, other._invariant_classes
        shape = [(k, len(c)) for k, c in mine.items()]
        if shape != [(k, len(c)) for k, c in theirs.items()]:
            return
        # classes go onto classes of the same invariant, so genera and legs
        # are carried over; only the edges can fail to match
        target_edges = other._relabeled_edges(tuple(range(other.n_vertices)))
        for sigma in _class_bijections(mine.values(), theirs.values()):
            if self._relabeled_edges(sigma) == target_edges:
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
        """Read the JSON form.  Genera, attachments, involution pairs and legs
        must be lists of non-bool ints, each pair and leg [label, vertex]
        exactly two of them; anything else raises GraphError."""
        names = ("vertex_genera", "half_edge_vertex", "involution_pairs", "legs")
        genera, hv, pairs, legs = json_fields(data, "a stable graph", GraphError, names)
        genera = _json_ints(genera, "vertex_genera")
        hv = _json_ints(hv, "half_edge_vertex")
        pairs = [_json_ints(e, "an involution pair", 2)
                 for e in json_list(pairs, "involution_pairs", GraphError)]
        legs = [_json_ints(e, "a leg", 2) for e in json_list(legs, "legs", GraphError)]
        inv = [-1] * len(hv)
        for h, hp in pairs:
            if not (0 <= h < len(hv) and 0 <= hp < len(hv)) or h == hp:
                raise GraphError(f"involution pair {[h, hp]} is out of range or self-paired")
            if inv[h] != -1 or inv[hp] != -1:
                raise GraphError(f"involution pair {[h, hp]} reuses a half-edge")
            inv[h], inv[hp] = hp, h
        if -1 in inv:
            raise GraphError(f"half-edge {inv.index(-1)} is in no involution pair")
        legs_sorted = sorted(legs)
        if [lab for lab, _ in legs_sorted] != list(range(1, len(legs_sorted) + 1)):
            raise GraphError("leg labels must be 1..n")
        graph = StableGraph(genera, hv, tuple(inv), tuple(v for _, v in legs_sorted))
        graph.validate()
        return graph


def _json_ints(value, what: str, size: int | None = None) -> tuple[int, ...]:
    """A JSON list of ints (not floats or bools), of length `size` if given."""
    entries = json_list(value, what, GraphError)
    if not all(type(x) is int for x in entries):
        raise GraphError(f"{what} must be a list of integers: {value!r}")
    if size is not None and len(entries) != size:
        raise GraphError(f"{what} must have {size} entries: {value!r}")
    return tuple(entries)


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


class GraphMorphism(NamedTuple):
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
        contracted = [(h, hp) for h, hp in src.edges() if h not in image]
        attached = src.half_edge_vertex
        if any(self.vertex_map[attached[h]] != self.vertex_map[attached[hp]]
               for h, hp in contracted):
            raise GraphError("contracted edge joins different fibers")
        roots, part_genus = _parts(src, contracted)
        parts: list[set[int]] = [set() for _ in range(tgt.n_vertices)]
        for v, w in enumerate(self.vertex_map):
            parts[w].add(roots[v])
        for w, part in enumerate(parts):
            if len(part) > 1:
                raise GraphError(f"fiber over vertex {w} is not connected")
            if part_genus[part.pop()] != tgt.genera[w]:
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
    return GraphMorphism(inner.source, outer.target, *_compose_maps(outer.encode(), inner.encode()))


def _compose_maps(outer: tuple, inner: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The `encode()` pair (vertex map, half-edge map) of outer o inner, from
    the pairs of outer and inner: vertex maps compose forwards, half-edge maps
    backwards."""
    return (tuple(map(outer[0].__getitem__, inner[0])),
            tuple(map(inner[1].__getitem__, outer[1])))


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
    Neither is validated here: contracting edges of a stable graph leaves it
    stable and connected, and `enumerate_morphisms` validates each morphism
    it composes from this one.
    """
    attached = graph.half_edge_vertex
    edges = {graph.edge_of(h) for h, _ in edge_set}
    roots, genus = _parts(graph, edges)
    new_index = {r: i for i, r in enumerate(genus)}
    vertex_map = tuple(new_index[r] for r in roots)
    cut = {h for edge in edges for h in edge}
    kept = tuple(h for h in range(graph.n_half_edges) if h not in cut)
    new_h_index = {h: i for i, h in enumerate(kept)}
    contracted = StableGraph(
        tuple(genus.values()),
        tuple(vertex_map[attached[h]] for h in kept),
        tuple(new_h_index[graph.involution[h]] for h in kept),
        tuple(vertex_map[v] for v in graph.leg_vertex),
    )
    return contracted, GraphMorphism(graph, contracted, vertex_map, kept)


def _parts(graph: StableGraph, edges) -> tuple[tuple[int, ...], dict[int, int]]:
    """The parts that contracting `edges`, pairs of half-edges of `graph`,
    joins: each vertex's part, named by its least vertex, and each part's
    genus by name, in increasing order of name.  A part with V vertices and
    E edges has genus sum(g) + E - V + 1."""
    attached = graph.half_edge_vertex
    roots = orbit_partition(graph.n_vertices, ((attached[h], attached[hp]) for h, hp in edges))
    # a part's least vertex is its first, so the names come in increasing order
    genus = dict.fromkeys(roots, 1)
    for v, g in enumerate(graph.genera):
        genus[roots[v]] += g - 1
    for h, _ in edges:
        genus[roots[attached[h]]] += 1
    return roots, genus


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


class GenericABGraph(NamedTuple):
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
    """All stable graphs of genus g with n legs and at most max_edges edges,
    in canonical-key order.

    Breadth-first closure under one-edge degenerations (vertex splitting and
    genus-reducing loops), starting from the smooth graph; complete because
    every stable graph contracts one edge at a time down to it.  Each class
    is represented by the first graph the walk meets in it.  A class's place
    is the index path, through each graph's `_one_edge_degenerations` in
    order, of that first meeting; the walk meets classes in lexicographic
    order of place; `_first_met` finds one class's graph without the walk.
    """
    try:
        start = trivial_graph(g, n)
    except GraphError:
        return ()
    seen = _degeneration_walk(start, max_edges)
    return tuple(seen[k] for k in sorted(seen))


def _degeneration_walk(start: StableGraph, steps: int) -> dict[tuple, StableGraph]:
    """The first graph met in each class within `steps` one-edge
    degenerations of `start`, by canonical key, breadth first."""
    seen = {start.canonical_key(): start}
    frontier = [start]
    for _ in range(steps):
        nxt = []
        for graph in frontier:
            for degen in _one_edge_degenerations(graph):
                key = degen.canonical_key()
                if key not in seen:
                    seen[key] = degen
                    nxt.append(degen)
        if not nxt:
            break
        frontier = nxt
    return seen


@lru_cache(maxsize=None)
def _first_met(key: tuple) -> tuple[tuple[int, ...], StableGraph]:
    """(place, graph) of a class in the walk of `enumerate_stable_graphs`.

    The smooth class has place ().  Any other class is first met from the
    class one edge below it with the least place, at that graph's first
    degeneration into the class; the classes one edge below are those of
    the graph's one-edge contractions.
    """
    graph = _graph_of_key(key)
    if not graph.n_edges:
        return (), graph
    below = set(_contraction_keys(graph, graph.n_edges - 1))
    place, parent = min(map(_first_met, below), key=lambda found: found[0])
    signature = graph._signature()
    for i, degen in enumerate(_one_edge_degenerations(parent)):
        if degen._signature() == signature and degen.canonical_key() == key:
            return place + (i,), degen
    raise InvariantError("no one-edge degeneration of a contraction reaches its class")


def _graph_of_key(key: tuple) -> StableGraph:
    """The graph a canonical key spells out: the key's vertex positions,
    with edge j on half-edges 2j and 2j+1."""
    _, (genera, edges, legs) = key
    half_edge_vertex = tuple(v for edge in edges for v in edge)
    involution = tuple(h ^ 1 for h in range(len(half_edge_vertex)))
    return StableGraph(genera, half_edge_vertex, involution, legs)


def _one_edge_degenerations(graph: StableGraph):
    """Genus-reducing loops and vertex splits of a stable graph, vertex by
    vertex, each split over the subsets of the vertex's half-edges and legs
    that move to the new vertex.

    A loop keeps 2g-2+n at its vertex and a split keeps the graph connected,
    so only the two vertices of a split can be unstable; nothing else is
    checked.
    """
    nH, w = graph.n_half_edges, graph.n_vertices
    inv = graph.involution + (nH + 1, nH)
    for v in range(graph.n_vertices):
        if graph.genera[v] >= 1:
            genera = list(graph.genera)
            genera[v] -= 1
            yield StableGraph(tuple(genera), graph.half_edge_vertex + (v, v), inv, graph.leg_vertex)
        items = [("half", h) for h in graph.half_edges_at(v)] + [
            ("leg", i) for i in graph.legs_at(v)
        ]
        for g1 in range(graph.genera[v] + 1):
            g2 = graph.genera[v] - g1
            for mask in range(1 << len(items)):
                moved = mask.bit_count()
                # v keeps len(items) - moved points, w gets moved, both the node
                if 2 * g1 - 1 + len(items) - moved <= 0 or 2 * g2 - 1 + moved <= 0:
                    continue
                genera = list(graph.genera)
                genera[v] = g1
                genera.append(g2)
                hv = list(graph.half_edge_vertex)
                legs = list(graph.leg_vertex)
                for i, (kind, idx) in enumerate(items):
                    if mask >> i & 1:
                        if kind == "half":
                            hv[idx] = w
                        else:
                            legs[idx] = w
                yield StableGraph(tuple(genera), tuple(hv) + (v, w), inv, tuple(legs))


def _edge_mask(f: GraphMorphism, edge_bit: dict[int, int]) -> int:
    """The source edges f hits, as the sum of their bits: distinct target
    edges hit distinct source edges."""
    return sum(edge_bit[f.half_edge_map[h]] for h, _ in f.target.edges())


def enumerate_generic_AB(a: StableGraph, b: StableGraph) -> list[GenericABGraph]:
    """Complete, duplicate-free list of generic (A,B)-graphs.

    Triples (gamma, gamma->A, gamma->B) with every edge of gamma coming from
    A or B, up to isomorphism of triples.  Their classes are built from
    matchings of E_A with E_B by `_generic_classes`: for each contraction
    onto k edges that A and B share, the vertices of the graph with more
    edges, say A, are opened by stable graphs of their own spaces that hold
    B's other |E_B| - k edges, and a glued graph is kept when contracting
    A's unmatched edges gives B.  Only those classes go to the morphism
    search.  Each is taken in the representative `_first_met` gives it, so
    the triples come in canonical-key order of gamma, with the labels a walk
    of the whole space gives.
    """
    if a.genus() != b.genus() or a.n_legs != b.n_legs:
        raise GraphError("A and B must have the same genus and leg count")
    a.validate()
    b.validate()
    out = []
    for key in sorted(_generic_classes(a, b)):
        gamma = _first_met(key)[1]
        to_a_list = enumerate_morphisms(gamma, a)
        to_b_list = enumerate_morphisms(gamma, b)
        autos = [(vperm, invert(hperm)) for vperm, hperm in gamma.automorphism_group()]
        # edge images as bit masks over gamma's edges: a pair is generic when
        # its two masks cover every edge
        edge_bit = {h: 1 << i for i, edge in enumerate(gamma.edges()) for h in edge}
        every_edge = (1 << gamma.n_edges) - 1
        a_masks = [_edge_mask(fa, edge_bit) for fa in to_a_list]
        b_masks = [_edge_mask(fb, edge_bit) for fb in to_b_list]
        a_codes = [fa.encode() for fa in to_a_list]
        b_codes = [fb.encode() for fb in to_b_list]
        a_orbits: list = [None] * len(to_a_list)
        b_orbits: list = [None] * len(to_b_list)
        # pairs met in the Aut(gamma)-orbit of a pair already emitted; the
        # orbit of each map is composed once, when a kept pair first needs it
        seen_pairs = set()
        for i, fa in enumerate(to_a_list):
            a_mask, a_code = a_masks[i], a_codes[i]
            for j, fb in enumerate(to_b_list):
                if a_mask | b_masks[j] != every_edge or (a_code, b_codes[j]) in seen_pairs:
                    continue
                if a_orbits[i] is None:
                    a_orbits[i] = [_compose_maps(a_code, s) for s in autos]
                if b_orbits[j] is None:
                    b_orbits[j] = [_compose_maps(b_codes[j], s) for s in autos]
                seen_pairs.update(zip(a_orbits[i], b_orbits[j]))
                out.append(GenericABGraph(gamma, fa, fb))
    return out


def _generic_classes(a: StableGraph, b: StableGraph) -> set[tuple]:
    """Canonical keys of the classes that carry a generic (A,B)-triple.

    In such a triple, the k edges of gamma hit by both maps come from k
    edges S_A of A and S_B of B, and contracting the rest of gamma gives
    A/(E_A - S_A) = B/(E_B - S_B): that shared contraction is the matching.
    gamma is A with its vertices opened into stable graphs that hold the
    |E_B| - k edges from B alone, and contracting E_A - S_A in gamma gives B.
    So each k-subset S_A whose contraction is one of B's is tried on every
    such opening of A, and an opening is kept when that contraction is B.
    The condition is symmetric in A and B, and the graph with more edges is
    opened, as it takes fewer new edges.
    """
    if a.n_edges < b.n_edges:
        a, b = b, a
    b_key, b_signature = b.canonical_key(), b._signature()
    pieces = _vertex_graphs(a, b.n_edges)
    found = set()
    for k in range(b.n_edges + 1):
        shared = set(_contraction_keys(b, k))
        # the unmatched edges of A, for each matching
        matchings = [set(a.edges()) - set(kept) for kept, key
                     in zip(itertools.combinations(a.edges(), k), _contraction_keys(a, k))
                     if key in shared]
        if not matchings:
            continue
        for gamma in _openings(a, b.n_edges - k, pieces):
            for unmatched in matchings:
                contracted = contract_edges(gamma, unmatched)[0]
                if contracted._signature() == b_signature and contracted.canonical_key() == b_key:
                    found.add(gamma.canonical_key())
                    break
    return found


@lru_cache(maxsize=None)
def _contraction_keys(graph: StableGraph, k: int) -> tuple[tuple, ...]:
    """The canonical key of the graph with every edge but k contracted, for
    each k-subset of its edges in `itertools.combinations` order, once per
    graph."""
    edges = set(graph.edges())
    return tuple(contract_edges(graph, edges - set(kept))[0].canonical_key()
                 for kept in itertools.combinations(graph.edges(), k))


def _vertex_graphs(a: StableGraph, most: int) -> list[list[tuple[StableGraph, ...]]]:
    """For each vertex of A, the stable graphs of its space (its genus, its
    legs then its half-edges as legs) by edge count, up to `most` edges;
    each space is walked once."""
    spaces: dict[tuple[int, int], list[tuple[StableGraph, ...]]] = {}
    out = []
    for v in range(a.n_vertices):
        space = (a.genera[v], a.valence(v))
        if space not in spaces:
            graphs = enumerate_stable_graphs(*space, most)
            spaces[space] = [tuple(x for x in graphs if x.n_edges == e) for e in range(most + 1)]
        out.append(spaces[space])
    return out


def _openings(a: StableGraph, new_edges: int, pieces):
    """A with each vertex v replaced by a graph of `pieces[v]`, the new edges
    `new_edges` in all.  A's half-edges keep their numbers, and each piece's
    own edges follow them."""
    for counts in _compositions(new_edges, a.n_vertices):
        choices = [pieces[v][e] for v, e in enumerate(counts)]
        for chosen in itertools.product(*choices):
            yield _glue(a, chosen)


def _compositions(total: int, parts: int):
    """The tuples of `parts` non-negative integers that sum to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _glue(a: StableGraph, chosen) -> StableGraph:
    """A with vertex v replaced by chosen[v], glued along A's legs and edges:
    leg i of chosen[v] is the i-th of v's `vertex_points`."""
    genera: list[int] = []
    hv = list(a.half_edge_vertex)
    inv = list(a.involution)
    legs = list(a.leg_vertex)
    for v, piece in enumerate(chosen):
        first = len(genera)
        genera.extend(piece.genera)
        for (kind, x), at in zip(a.vertex_points(v), piece.leg_vertex):
            (legs if kind == "leg" else hv)[x] = first + at
        base = len(hv)
        hv.extend(first + x for x in piece.half_edge_vertex)
        inv.extend(base + x for x in piece.involution)
    return StableGraph(tuple(genera), tuple(hv), tuple(inv), tuple(legs))
