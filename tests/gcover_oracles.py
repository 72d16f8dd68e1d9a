"""G-equivariance of a graph map by index loops, kept as a named oracle.

`covercalc.gcover` reads a G-structure across a graph map one way: it
transports the target's half-edge monodromy and generator images along the
map and compares them with the source's own.  `equivariant_morphism`
checks the same property from its definition, one generator and one point
at a time, and it checks the vertices too, which the transport leaves to
the attachments.
"""

from __future__ import annotations


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
