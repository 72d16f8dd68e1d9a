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

`restrict_graph` reads the restricted graph's leg action and leg monodromy
off the restricted space's coset layout, which holds for admissible input.
`restricted_legs_by_relabel` computes them from the input's own legs: it
relabels the input's leg action through the map from new leg positions to
old ones, and restricts each old leg's monodromy to the subgroup.

`wrap_trivial_group` builds through the module's one constructor for derived
G-graphs, which reads the vertex images off the attachments and the legs off
the space's layout.  `trivial_wrapping_inline` assembles every part itself:
identity images of all three kinds and identity monodromy at every point.
"""

from __future__ import annotations

from covercalc.errors import ActionError
from covercalc.gcover import (
    AdmissibleGGraph,
    GAction,
    HurwitzSpaceId,
    restriction_monodromy,
)
from covercalc.groups import compose, coset_index, index_drop, invert, trivial_group


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


def restricted_legs_by_relabel(gg, subgroup) -> tuple[dict, tuple]:
    """The leg action (per subgroup generator) and leg monodromy of the
    restriction of gg to subgroup, relabeled from gg's own legs."""
    group = gg.group
    new_space, ledger = restriction_monodromy(gg.space, subgroup)
    old_tables, old_offsets = gg.space.cosets, gg.space.distinguished_positions
    new_to_old = [
        old_offsets[i] + coset_index(old_tables[i], compose(c, t))
        for (i, _, t, _), new_table in zip(ledger, new_space.cosets)
        for c in new_table.reps
    ]
    old_to_new = invert(new_to_old)
    action = {}
    for s in subgroup.generators:
        old_leg = gg.action.leg[s]
        action[s] = tuple(old_to_new[old_leg[new_to_old[p]]] for p in range(len(new_to_old)))
    mon_leg = tuple(index_drop(group, gg.mon_leg[p], subgroup)[1] for p in new_to_old)
    return action, mon_leg


def trivial_wrapping_inline(graph) -> AdmissibleGGraph:
    """A stable graph as an admissible G-graph for the trivial group, each
    generator acting by the identity on vertices, half-edges and legs."""
    group = trivial_group()
    e = group.identity
    space = HurwitzSpaceId(graph.genus(), group, tuple(e for _ in range(graph.n_legs)))
    ident_images = {
        g: (
            tuple(range(graph.n_vertices)),
            tuple(range(graph.n_half_edges)),
            tuple(range(graph.n_legs)),
        )
        for g in group.generators
    }
    action = GAction.from_generators(graph, group, ident_images)
    mon_half = tuple(e for _ in range(graph.n_half_edges))
    mon_leg = tuple(e for _ in range(graph.n_legs))
    return AdmissibleGGraph(space, graph, action, mon_half, mon_leg)
