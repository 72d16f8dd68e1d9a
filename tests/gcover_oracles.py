"""G-equivariance of a graph map by index loops, and a G-action's table by
a walk over the group, kept as named oracles.

`covercalc.gcover` reads a G-structure across a graph map one way: it
transports the target's half-edge monodromy and generator images along the
map and compares them with the source's own.  `equivariant_morphism`
checks the same property from its definition, one generator and one point
at a time, and it checks the vertices too, which the transport leaves to
the attachments.

`GAction.from_generators` closes each generator joined with its images in
one permutation group closure.  `action_tables_by_walk` builds the same
tables by walking the group breadth-first from the identity, composing the
images element by element and refusing an element reached twice with
different images.
"""

from __future__ import annotations

from covercalc.errors import ActionError
from covercalc.groups import compose


def equivariant_morphism(src, tgt, morphism) -> bool:
    """Whether morphism: src.graph -> tgt.graph commutes with every
    generator on vertices and half-edges and keeps each half-edge's
    monodromy.  The half-edge map runs backwards, from tgt to src."""
    for t in src.group.generators:
        for v in range(src.graph.n_vertices):
            if morphism.vertex_map[src.action.vertex[t][v]] != tgt.action.vertex[t][
                morphism.vertex_map[v]
            ]:
                return False
        for h in range(tgt.graph.n_half_edges):
            if morphism.half_edge_map[tgt.action.half[t][h]] != src.action.half[t][
                morphism.half_edge_map[h]
            ]:
                return False
    for h in range(tgt.graph.n_half_edges):
        if src.mon_half[morphism.half_edge_map[h]] != tgt.mon_half[h]:
            return False
    return True


def action_tables_by_walk(graph, group, gen_images) -> tuple[dict, dict, dict]:
    """The vertex, half-edge and leg tables of the action the generator
    images (vperm, hperm, lperm) define, by a breadth-first walk over the
    group: ActionError when they break the group law."""
    e = group.identity
    table = {e: (tuple(range(graph.n_vertices)), tuple(range(graph.n_half_edges)),
                 tuple(range(graph.n_legs)))}
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            for gen in group.generators:
                b = compose(gen, a)
                composed = tuple(tuple(img[x] for x in part)
                                 for img, part in zip(gen_images[gen], table[a]))
                if b not in table:
                    table[b] = composed
                    nxt.append(b)
                elif table[b] != composed:
                    raise ActionError("generator images violate the group relations")
        frontier = nxt
    return tuple({g: t[k] for g, t in table.items()} for k in range(3))
