"""Admissible G-graphs and the intersection rules on covers' moduli.

An admissible G-graph is a stable graph with a G-action, a distinguished
leg per marked orbit, and monodromy elements at all half-edges and legs,
subject to: cyclic stabilizers generated by the monodromy, agreement with
the space's monodromy datum at distinguished legs, conjugation
equivariance along orbits, no edge collapsed by the action, and inverse
monodromies across each edge.

Legs are kept in a canonical layout: marked orbit i occupies a contiguous
block indexed by the deterministic left cosets of the stabilizer of its
monodromy element, with the identity coset (the distinguished leg) first.
Any other choice differs by a relabeling isomorphism, so the canonical
frame loses nothing and keeps every construction reproducible.
`HurwitzSpaceId` computes this layout once: the coset table of each
stabilizer, the block offsets, the leg monodromy and each generator's leg
action.  Every G-graph the module derives (a forced intersection term, a
restriction, a corestriction, a trivial-group wrapping) is built by one
constructor, `_in_layout`, from half-edge images and monodromy; only the
JSON reader takes vertex and leg images as given, for the validator to judge.
Subgroups are groups in their own right, and restriction and corestriction
map one `HurwitzSpaceId` to another, reading `groups.index_drop`.

Every orbit of points comes from `GAction.orbit_labels`, which takes the
point kind ("vertex", "half" or "leg") and the acting subgroup (G, a
normal N or a restriction subgroup) and partitions the points over that
subgroup's generators with `groups.orbit_partition`, the package's one
orbit routine.  An edge orbit is named by the lesser label of its two
halves; `edge_orbit_representatives`, the validator's edge-collapse test
and the excess exponents read those labels, and so does every stabilizer
order, #acting / #orbit (orbit-stabilizer).  Every action table is the
group closure (`groups.closure`) of the generators joined with their
images, and every Riemann-Hurwitz solve, global or vertexwise, is
`quotient_genus`, the global ones (by G or by a normal N) through
`_datum_quotient_genus`.  Every G-structure read across a graph map comes
from `_transport`: it forces the structure on a generic triple, and a map
is G-equivariant when it carries the source's own structure back.

Every entry point refuses an inadmissible input G-graph before anything
else (`_require_admissible`: CoverError naming the input and its first
violation).  Restriction and corestriction send admissible covers to
admissible covers, so their check of their own result is an invariant.

The `pullback` payload has one reader, `pullback_psi_kappa_hurwitz`: the
CLI hands it the decoded JSON object and prints the formula it returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

from covercalc.errors import ActionError, CoverError, GraphError, GroupError, InvariantError
from covercalc.errors import json_fields, json_list
from covercalc.exact import rat_to_str
from covercalc.graphs import (
    GraphMorphism,
    StableGraph,
    enumerate_generic_AB,
    isomorphism_as_morphism,
)
from covercalc.groups import (
    FiniteGroup,
    FrozenRecord,
    Perm,
    QuotientGroup,
    check_normal,
    closure,
    compose,
    coset_action,
    coset_index,
    identity_perm,
    index_drop,
    invert,
    is_perm,
    left_cosets,
    orbit_on_cosets,
    orbit_partition,
    perm_from_json,
    perm_order,
    perm_to_json,
    trivial_group,
)


def quotient_genus(genus: int, order: int, ramification: int) -> Fraction:
    """Riemann-Hurwitz for a quotient by a group of the given order: the g'
    with 2g - 2 = order (2g' - 2) + ramification, where ramification sums
    (stabilizer order - 1) over the points.  Callers reject a g' that is
    not integral or is negative, each with its own message."""
    return Fraction(2 * genus - 2 - ramification, 2 * order) + 1


def _datum_quotient_genus(genus: int, group: FiniteGroup, xi, acting: FiniteGroup) -> Fraction:
    """Riemann-Hurwitz for the quotient by `acting` (G or a normal N) of a
    curve with monodromy datum (genus, G, xi): over branch point i lie
    #G/ord(h_i) points, each fixed by <h_i> ∩ acting, of order ord(h_i)/r_i."""
    ramification = sum(
        len(group) // index_drop(group, h, acting)[0] - len(group) // perm_order(h) for h in xi
    )
    return quotient_genus(genus, len(acting), ramification)


def riemann_hurwitz_target(g: int, group: FiniteGroup, xi) -> tuple[int, int, int]:
    """Solve for (target genus g', marked source points r, branch points b).

    Over branch point i lie #G/ord(h_i) points with stabilizer <h_i>, for
    xi entries in the group; raises when no integral non-negative g' exists.
    """
    xi = tuple(xi)
    gp = _datum_quotient_genus(g, group, xi, group)
    if gp.denominator != 1 or gp < 0:
        raise CoverError(
            f"no integral target genus: 2g'-2 = {2 * gp - 2} is not an "
            "even non-negative solution"
        )
    return int(gp), sum(len(group) // perm_order(h) for h in xi), len(xi)


class HurwitzSpaceId(FrozenRecord):
    """The discrete datum (source genus, group, monodromy tuple).

    Each xi entry must be an element of the group (CoverError otherwise).
    The canonical leg layout is computed once: `cosets[i]` is the coset
    table of the stabilizer <xi_i>, whose legs form the block starting at
    `distinguished_positions[i]`, `canonical_leg_monodromy` carries
    rep xi_i rep^-1 at the leg of each representative, and
    `canonical_leg_action[t]` is generator t's coset action on the legs.
    Equality reads the datum and the genus and mark count it solves for,
    not the layout.
    """

    __slots__ = ("genus", "group", "xi", "target_genus", "n_source_marks",
                 "cosets", "distinguished_positions", "canonical_leg_monodromy",
                 "canonical_leg_action")
    _compared = ("genus", "group", "xi", "target_genus", "n_source_marks")

    def __init__(self, genus: int, group: FiniteGroup, xi: tuple[Perm, ...]) -> None:
        degree = group.degree
        for h in xi:
            shown = perm_to_json(h)
            if not is_perm(h, degree):
                raise CoverError(f"xi entry {shown} is not a permutation of degree {degree}")
            if h not in group:
                raise CoverError(f"xi entry {shown} is not an element of the group")
        gp, r, _ = riemann_hurwitz_target(genus, group, xi)
        cosets = tuple(left_cosets(group, group.cyclic_subgroup(h)) for h in xi)
        offsets, off = [], 0
        for table in cosets:
            offsets.append(off)
            off += len(table.reps)
        self._set(
            genus=genus, group=group, xi=xi, target_genus=gp, n_source_marks=r,
            cosets=cosets, distinguished_positions=tuple(offsets),
            canonical_leg_monodromy=tuple(
                compose(rep, compose(h, invert(rep)))
                for h, table in zip(xi, cosets)
                for rep in table.reps
            ),
            canonical_leg_action={
                t: tuple(off + k for table, off in zip(cosets, offsets)
                         for k in coset_action(table, t))
                for t in group.generators
            },
        )

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "group": self.group.to_json(),
            "xi": [perm_to_json(h) for h in self.xi],
        }

    @staticmethod
    def from_json(data: dict) -> "HurwitzSpaceId":
        genus, group, xi = json_fields(data, "a Hurwitz space", CoverError,
                                       ("genus", "group", "xi"))
        if type(genus) is not int:
            raise CoverError(f"genus {genus!r} is not an integer")
        return HurwitzSpaceId(
            genus,
            FiniteGroup.from_json(group),
            tuple(perm_from_json(h) for h in json_list(xi, "xi", CoverError)),
        )


def stabilizer_orders(labels: list[int], acting: FiniteGroup) -> list[int]:
    """The order of each point's stabilizer in `acting`, from the points'
    orbit labels under `acting`: #acting / #orbit (orbit-stabilizer)."""
    sizes = [0] * len(labels)  # orbits are labelled 0..k-1, k <= #points
    for label in labels:
        sizes[label] += 1
    return [len(acting) // sizes[label] for label in labels]


class GAction(NamedTuple):
    """A G-action on a stable graph by structure-preserving permutations.

    `vertex`, `half` and `leg` map each group element to its permutation of
    that kind of point.  `orbit_labels` takes the kind by the same name
    and an acting subgroup; every orbit in this module comes from it, and
    every stabilizer order from its labels by `stabilizer_orders`.
    """

    graph: StableGraph
    group: FiniteGroup
    vertex: dict
    half: dict
    leg: dict

    @staticmethod
    def from_generators(
        graph: StableGraph, group: FiniteGroup, gen_images: dict
    ) -> "GAction":
        """Close generator images into a full action table.

        gen_images maps each generator to (vperm, hperm, lperm), joined in
        one permutation of the group's points, vertices, half-edges and legs.
        Their closure maps onto G; it has #G elements exactly when the images
        respect the group law (no non-injective one does), else ActionError.
        """
        d = group.degree
        sizes = (graph.n_vertices, graph.n_half_edges, graph.n_legs)
        offsets = (d, d + sizes[0], d + sizes[0] + sizes[1])
        joined = [
            g + tuple(off + x for off, image in zip(offsets, gen_images[g]) for x in image)
            for g in group.generators
        ]
        try:
            table = closure(identity_perm(offsets[2] + sizes[2]), joined, len(group))
        except GroupError:
            raise ActionError("generator images violate the group relations") from None
        kinds = [
            {x[:d]: tuple(y - off for y in x[off : off + size]) for x in table}
            for off, size in zip(offsets, sizes)
        ]
        return GAction(graph, group, *kinds)

    def check_structure(self) -> None:
        """Each group element must act by a graph automorphism."""
        graph = self.graph
        for t in self.group.generators:
            vp, hp, lp = self.vertex[t], self.half[t], self.leg[t]
            for v in range(graph.n_vertices):
                if graph.genera[vp[v]] != graph.genera[v]:
                    raise ActionError(f"element changes the genus at vertex {v}")
            for h in range(graph.n_half_edges):
                if graph.half_edge_vertex[hp[h]] != vp[graph.half_edge_vertex[h]]:
                    raise ActionError(f"attachment not preserved at half-edge {h}")
                if graph.involution[hp[h]] != hp[graph.involution[h]]:
                    raise ActionError(f"involution not preserved at half-edge {h}")
            for l in range(graph.n_legs):
                if graph.leg_vertex[lp[l]] != vp[graph.leg_vertex[l]]:
                    raise ActionError(f"leg attachment not preserved at leg {l}")

    def orbit_labels(self, kind: str, acting: FiniteGroup) -> tuple[list[int], list[int]]:
        """The orbit id of every point of a kind and the least point of each
        orbit, with orbits numbered by their least points.  The orbits of a
        finite group are those of its generators."""
        table = getattr(self, kind)
        count = len(table[self.group.identity])
        least = orbit_partition(count, (link for t in acting.generators
                                        for link in enumerate(table[t])))
        # each least point first occurs at itself, so in increasing order
        index: dict[int, int] = {}
        return [index.setdefault(x, len(index)) for x in least], list(index)

    def edge_orbit_representatives(self, edges=None) -> list[tuple[int, int]]:
        """The first edge of each G-orbit met, walking edges (default: all).
        t takes the edge (h, h') to (t h, t h'), so the lesser label of its
        two halves names its orbit."""
        labels, _ = self.orbit_labels("half", self.group)
        seen: set[int] = set()
        reps = []
        for h, hp in self.graph.edges() if edges is None else edges:
            orbit = min(labels[h], labels[hp])
            if orbit not in seen:
                seen.add(orbit)
                reps.append((h, hp))
        return reps


class Violation(NamedTuple):
    label: str
    detail: str

    def to_json(self) -> dict:
        return {"label": self.label, "detail": self.detail}


class AdmissibleGGraph(NamedTuple):
    """Stable graph + G-action + monodromy in the canonical leg layout."""

    space: HurwitzSpaceId
    graph: StableGraph
    action: GAction
    mon_half: tuple[Perm, ...]
    mon_leg: tuple[Perm, ...]

    @property
    def group(self) -> FiniteGroup:
        return self.space.group

    def to_json(self) -> dict:
        gens = self.group.generators
        return {
            "space": self.space.to_json(),
            "graph": self.graph.to_json(),
            "action_generators": [
                {
                    "vertices": list(self.action.vertex[g]),
                    "half_edges": list(self.action.half[g]),
                    "legs": list(self.action.leg[g]),
                }
                for g in gens
            ],
            "monodromy_half_edges": [perm_to_json(h) for h in self.mon_half],
            "monodromy_legs": [perm_to_json(h) for h in self.mon_leg],
        }

    @staticmethod
    def from_json(data: dict) -> "AdmissibleGGraph":
        """Read the JSON form, rejecting malformed shapes with CoverError.

        Checked here: one monodromy per half-edge and per leg, each a
        permutation of the group's degree, and one action entry per
        generator whose images permute the vertices, half-edges and legs.
        `HurwitzSpaceId` checks that each xi entry lies in the group; the
        group membership of the other monodromies is left to the validator.
        """
        parts = ("space", "graph", "action_generators", "monodromy_half_edges",
                 "monodromy_legs")
        space, graph, entries, *monodromies = json_fields(
            data, "an admissible G-graph", CoverError, parts)
        space = HurwitzSpaceId.from_json(space)
        graph = StableGraph.from_json(graph)
        gens = space.group.generators
        entries = json_list(entries, "action_generators", CoverError)
        if len(entries) != len(gens):
            raise CoverError(f"{len(entries)} action entries for {len(gens)} generators")
        sizes = {
            "vertices": graph.n_vertices,
            "half_edges": graph.n_half_edges,
            "legs": graph.n_legs,
        }
        gen_images = {}
        for g, entry in zip(gens, entries):
            images = json_fields(entry, f"action entry {entry!r}", CoverError, tuple(sizes))
            for (part, size), image in zip(sizes.items(), images):
                if not is_perm(json_list(image, f"action {part} image", CoverError), size):
                    raise CoverError(f"action {part} image {image} does not permute {size} points")
            gen_images[g] = tuple(map(tuple, images))
        action = GAction.from_generators(graph, space.group, gen_images)
        degree = space.group.degree
        monodromy = []
        for part, size, listed in zip(parts[3:], (graph.n_half_edges, graph.n_legs),
                                      monodromies):
            listed = json_list(listed, part, CoverError)
            if len(listed) != size:
                raise CoverError(f"{part} has {len(listed)} entries for {size} points")
            perms = tuple(perm_from_json(h) for h in listed)
            if not all(is_perm(h, degree) for h in perms):
                raise CoverError(f"{part} holds a non-permutation of degree {degree}")
            monodromy.append(perms)
        return AdmissibleGGraph(space, graph, action, *monodromy)


def validate_admissible_g_graph(gg: AdmissibleGGraph) -> list[Violation]:
    """All violations of the admissibility conditions (empty list = valid)."""
    space, graph, action, group = gg.space, gg.graph, gg.action, gg.group
    out: list[Violation] = []
    if graph.n_legs != space.n_source_marks:
        out.append(
            Violation(
                "layout",
                f"{graph.n_legs} legs but the space marks {space.n_source_marks} points",
            )
        )
        return out
    try:
        graph.validate()
        action.check_structure()
    except (GraphError, ActionError) as err:
        out.append(Violation("action", str(err)))
        return out
    if any(action.leg[t] != space.canonical_leg_action[t] for t in group.generators):
        out.append(Violation("layout", "leg action differs from the canonical coset layout"))
        return out
    if graph.genus() != space.genus:
        out.append(
            Violation("genus", f"graph genus {graph.genus()} != source genus {space.genus}")
        )
    points = (("half", "half-edge", gg.mon_half), ("leg", "leg", gg.mon_leg))
    # stabilizer condition: <h_l> equals the stabilizer, for every point; an
    # h_l in G (a key of the table) that fixes l generates part of it, and
    # the orders decide
    labels = {kind: action.orbit_labels(kind, group)[0] for kind, _, _ in points}
    for kind, _, mon in points:
        table, orders = getattr(action, kind), stabilizer_orders(labels[kind], group)
        for idx, h in enumerate(mon):
            if h not in table or table[h][idx] != idx or perm_order(h) != orders[idx]:
                out.append(
                    Violation(
                        "stabilizer",
                        f"monodromy at {kind} {idx} does not generate its stabilizer",
                    )
                )
    # agreement with xi at distinguished legs
    for i, pos in enumerate(space.distinguished_positions):
        if gg.mon_leg[pos] != space.xi[i]:
            out.append(
                Violation(
                    "xi-agreement",
                    f"distinguished leg of orbit {i} carries the wrong monodromy",
                )
            )
    # conjugation equivariance along generator moves
    for t in group.generators:
        ti = invert(t)
        for kind, name, mon in points:
            moved = getattr(action, kind)[t]
            for idx, h in enumerate(mon):
                if mon[moved[idx]] != compose(t, compose(h, ti)):
                    out.append(
                        Violation(
                            "equivariance",
                            f"{name} {idx} moved by a generator breaks h_(t.l) = t h t^-1",
                        )
                    )
    # no edge collapsed by the action
    for h, hp in graph.edges():
        if labels["half"][h] == labels["half"][hp]:
            out.append(
                Violation("edge-collapse", f"the action maps half-edge {h} to its partner {hp}")
            )
    # balancing
    for h, hp in graph.edges():
        if gg.mon_half[hp] != invert(gg.mon_half[h]):
            out.append(
                Violation("balancing", f"edge ({h},{hp}) monodromies are not inverse")
            )
    # dedupe, first-seen order
    return list(dict.fromkeys(out))


def _in_layout(space: HurwitzSpaceId, graph: StableGraph, half_images: dict,
               mon_half: tuple[Perm, ...]) -> AdmissibleGGraph:
    """The G-graph on graph whose generator t moves the half-edges by
    half_images[t], with half-edge monodromy mon_half and the legs in space's
    layout.  Each vertex image is read off the attachment of a half-edge or
    leg there (0 for a bare vertex, the graph's only one).  Images that break
    the group law raise ActionError; the validator judges the rest."""
    gen_images = {}
    for t in space.group.generators:
        hperm, lperm = half_images[t], space.canonical_leg_action[t]
        vperm = [0] * graph.n_vertices
        for h, w in enumerate(hperm):
            vperm[graph.half_edge_vertex[h]] = graph.half_edge_vertex[w]
        for l, w in enumerate(lperm):
            vperm[graph.leg_vertex[l]] = graph.leg_vertex[w]
        gen_images[t] = (tuple(vperm), hperm, lperm)
    action = GAction.from_generators(graph, space.group, gen_images)
    return AdmissibleGGraph(space, graph, action, mon_half, space.canonical_leg_monodromy)


# ---------------------------------------------------------------------------
# restriction and corestriction


def restriction_monodromy(
    space: HurwitzSpaceId, subgroup: FiniteGroup
) -> tuple[HurwitzSpaceId, list[tuple[int, int, Perm, int]]]:
    """Monodromy after restricting the action to a subgroup.

    Returns the restricted space (same source genus, over the subgroup) and
    a ledger of (orbit i, piece j, representative t_ij, power r_ij); the
    new elements are (t h_i t^-1)^r with r the stabilizer-index drop.

    Marked orbit i splits into the subgroup's orbits on G/<h_i>, and piece
    j's distinguished point is the first coset of the j-th orbit of
    `orbit_on_cosets`, so the representatives are canonical.  Any other
    choice of representatives differs by a relabeling isomorphism of the
    restricted space, so this one choice loses nothing.
    """
    new_xi = []
    ledger = []
    for i, (h, table) in enumerate(zip(space.xi, space.cosets)):
        for j, orbit in enumerate(orbit_on_cosets(subgroup, table)):
            t = table.reps[orbit[0]]
            r, power = index_drop(space.group, compose(t, compose(h, invert(t))), subgroup)
            new_xi.append(power)
            ledger.append((i, j, t, r))
    return HurwitzSpaceId(space.genus, subgroup, tuple(new_xi)), ledger


def corestriction_monodromy(
    space: HurwitzSpaceId, normal: FiniteGroup
) -> tuple[HurwitzSpaceId, QuotientGroup]:
    """Componentwise projection of the monodromy to G/N, over the partial
    quotient curve, whose genus is global Riemann-Hurwitz for N."""
    q = QuotientGroup(space.group, normal)
    new_xi = tuple(q.project(h) for h in space.xi)
    genus = _datum_quotient_genus(space.genus, space.group, space.xi, normal)
    if genus.denominator != 1 or genus < 0:
        raise CoverError("partial quotient has no integral genus")
    return HurwitzSpaceId(int(genus), q.group, new_xi), q


def restrict_graph(gg: AdmissibleGGraph, subgroup: FiniteGroup) -> AdmissibleGGraph:
    """The same graph with the action restricted to a subgroup.

    An admissible input (CoverError otherwise) restricts to an admissible
    subgroup-graph, so the leg action and leg monodromy are the restricted
    space's layout; each new leg sits where the leg of its coset sat.
    """
    _require_admissible(gg, "input gg")
    new_space, ledger = restriction_monodromy(gg.space, subgroup)
    # each new block is one subgroup orbit on G/<h_i>, and its coset c is
    # the old coset c t <h_i> (orbit-stabilizer)
    old_tables, old_offsets = gg.space.cosets, gg.space.distinguished_positions
    new_leg_vertex = tuple(
        gg.graph.leg_vertex[old_offsets[i] + coset_index(old_tables[i], compose(c, t))]
        for (i, _, t, _), new_table in zip(ledger, new_space.cosets)
        for c in new_table.reps
    )
    new_graph = gg.graph._replace(leg_vertex=new_leg_vertex)
    mon_half = tuple(index_drop(gg.group, h, subgroup)[1] for h in gg.mon_half)
    result = _in_layout(new_space, new_graph, gg.action.half, mon_half)
    return _require_admissible(result, "the restriction", InvariantError)


def corestrict_graph(gg: AdmissibleGGraph, normal: FiniteGroup) -> AdmissibleGGraph:
    """Quotient graph by a normal subgroup with projected action and monodromy.

    An admissible input (CoverError otherwise) has an admissible quotient,
    so the leg action and leg monodromy are the quotient space's layout.
    Vertex genera are recomputed from the vertexwise Riemann-Hurwitz
    formula, which the validator does not check; a non-integral or negative
    solution means the input was not the graph of an actual cover and raises.
    """
    _require_admissible(gg, "input gg")
    new_space, q = corestriction_monodromy(gg.space, normal)
    graph, action = gg.graph, gg.action
    v_label, v_classes = action.orbit_labels("vertex", normal)
    h_label, h_classes = action.orbit_labels("half", normal)
    # involution descends; edge-collapse condition guarantees no fixed point
    new_inv = [h_label[graph.involution[c]] for c in h_classes]
    new_hv = [v_label[graph.half_edge_vertex[c]] for c in h_classes]
    # vertexwise Riemann-Hurwitz for the quotient genus, with the orders of
    # the stabilizers in N
    labels = {"vertex": v_label, "half": h_label, "leg": action.orbit_labels("leg", normal)[0]}
    orders = {kind: stabilizer_orders(x, normal) for kind, x in labels.items()}
    new_genera = []
    for c in v_classes:
        ram = sum(orders[kind][x] - 1 for kind, x in graph.vertex_points(c))
        gq = quotient_genus(graph.genera[c], orders["vertex"][c], ram)
        if gq.denominator != 1:
            raise CoverError(
                f"vertex {c}: quotient genus is not integral (Riemann-Hurwitz)"
            )
        if gq < 0:
            raise CoverError(f"vertex {c}: negative quotient genus")
        new_genera.append(int(gq))
    # canonical legs: the leg of quotient coset c in block i is the image of
    # the distinguished leg under a lift of c
    old_tables, old_offsets = gg.space.cosets, gg.space.distinguished_positions
    new_leg_vertex = tuple(
        v_label[graph.leg_vertex[old_offsets[i] + coset_index(old_tables[i], q.rep_of(c))]]
        for i, table in enumerate(new_space.cosets)
        for c in table.reps
    )
    new_graph = StableGraph(tuple(new_genera), tuple(new_hv), tuple(new_inv), new_leg_vertex)
    new_graph.validate()
    # quotient action via lifts of the quotient-group generators
    half_images = {
        qg: tuple(h_label[action.half[q.rep_of(qg)][c]] for c in h_classes)
        for qg in q.group.generators
    }
    mon_half = tuple(q.project(gg.mon_half[c]) for c in h_classes)
    result = _in_layout(new_space, new_graph, half_images, mon_half)
    return _require_admissible(result, "the corestriction", InvariantError)


def _require_admissible(gg: AdmissibleGGraph, what: str, error=CoverError) -> AdmissibleGGraph:
    """gg, or `error` naming `what` and gg's first violation.  Each entry
    point runs it first on its input G-graphs; on the result of a map that
    admissible input makes admissible, a violation is a bug (InvariantError)."""
    problems = validate_admissible_g_graph(gg)
    if problems:
        raise error(f"{what} is not admissible: {problems[0].label}")
    return gg


# ---------------------------------------------------------------------------
# boundary intersections on cover moduli


class HBoundaryTerm(NamedTuple):
    gamma: AdmissibleGGraph
    to_a: GraphMorphism
    to_b: GraphMorphism
    excess_orbit_edges: tuple[tuple[int, int], ...]


def boundary_intersection_H(
    a: AdmissibleGGraph, b: AdmissibleGGraph
) -> list[HBoundaryTerm]:
    """Equivariant boundary-boundary intersection terms.

    Underlying generic (A,B)-graphs are enriched with the unique G-action
    forced by equivariance of the two maps (the genericity condition leaves
    no free edges) and kept when the admissibility conditions hold.  The
    excess product runs over G-orbit representatives of the edges hit from
    both sides; `mbar._expand_excess(term.gamma.graph,
    term.excess_orbit_edges)` expands it.
    """
    if a.space != b.space:
        raise CoverError("boundary classes live on different spaces")
    _require_admissible(a, "input A")
    _require_admissible(b, "input B")
    space = a.space
    out = []
    for triple in enumerate_generic_AB(a.graph, b.graph):
        enriched = _force_g_structure(space, triple, a, b)
        if enriched is None:
            continue
        orbit_reps = enriched.action.edge_orbit_representatives(triple.common_edges())
        out.append(HBoundaryTerm(enriched, triple.to_A, triple.to_B, tuple(orbit_reps)))
    return out


def _force_g_structure(
    space: HurwitzSpaceId,
    triple,
    a: AdmissibleGGraph,
    b: AdmissibleGGraph,
) -> AdmissibleGGraph | None:
    """The G-graph on the triple's gamma whose G-action and monodromy make
    both maps to A and B G-equivariant, or None when there is none or it is
    not admissible.

    This is transport only.  Every half-edge of gamma comes from A or B
    (genericity), and `_transport` copies its monodromy and generator
    images along `to_A` and `to_B`; a half-edge on which the two maps
    disagree gives None.  `_in_layout` builds the G-graph in the canonical
    layout that the validated A and B already carry.  Nothing else is
    checked here: images that break the group law, a non-injective one
    among them, give None, and so does every candidate the validator
    rejects, vertex images that break an attachment among them.
    """
    gamma, gens = triple.gamma, space.group.generators
    transported = _transport(gens, gamma.n_half_edges, ((triple.to_A, a), (triple.to_B, b)))
    if transported is None:
        return None
    half_images = {t: tuple(moves[i] for _, moves in transported) for i, t in enumerate(gens)}
    try:
        candidate = _in_layout(space, gamma, half_images, tuple(mon for mon, _ in transported))
    except ActionError:
        return None
    if validate_admissible_g_graph(candidate):
        return None
    return candidate


def _transport(gens, n_half: int, pairs) -> list | None:
    """Each of gamma's half-edges' (monodromy, generator images), copied
    from the G-graph along f for each (f: gamma -> its graph, G-graph) pair:
    f(h) gets h's monodromy and t moves it to f(t h).  None when two maps
    disagree; a half-edge no map hits stays None."""
    transported: list = [None] * n_half
    for f, side in pairs:
        images = f.half_edge_map
        for h, image in enumerate(images):
            moved = (side.mon_half[h], tuple(images[side.action.half[t][h]] for t in gens))
            if transported[image] not in (None, moved):
                return None
            transported[image] = moved
    return transported


def _equivariant(f: GraphMorphism, src: AdmissibleGGraph, tgt: AdmissibleGGraph) -> bool:
    """Whether transporting tgt along f: src.graph -> tgt.graph gives src's
    own structure.  When f and both actions respect attachments, the vertex
    images follow from the half-edges."""
    gens, half = src.group.generators, src.action.half
    own = [(mon, tuple(half[t][h] for t in gens)) for h, mon in enumerate(src.mon_half)]
    return _transport(gens, len(own), ((f, tgt),)) == own


# ---------------------------------------------------------------------------
# restriction / corestriction against boundary strata


def restriction_boundary_exponents(
    gamma: AdmissibleGGraph,
    subgroup: FiniteGroup,
    alpha: GraphMorphism,
) -> list[tuple[tuple[int, int], int]]:
    """Excess exponents k for a restricted-graph morphism onto a stratum.

    alpha maps the restriction of gamma to an admissible subgroup-graph A;
    its edge image must hit every G-orbit of edges of gamma.  For each
    G-orbit representative, k counts the subgroup-orbits inside the orbit's
    intersection with the image (>= 1 by genericity); the excess factor is
    (-psi - psi')^(k-1).
    """
    if alpha.source != restrict_graph(gamma, subgroup).graph:
        raise CoverError("alpha's source is not the restriction of gamma")
    alpha.validate()
    image = alpha.edge_image()
    action = gamma.action
    labels, _ = action.orbit_labels("half", gamma.group)
    sub_labels, _ = action.orbit_labels("half", subgroup)
    out = []
    for rep in action.edge_orbit_representatives():
        orbit = min(labels[rep[0]], labels[rep[1]])
        hit = {min(sub_labels[h], sub_labels[hp])
               for h, hp in image if min(labels[h], labels[hp]) == orbit}
        if not hit:
            raise CoverError(
                f"edge orbit of {rep} is missed by the stratum map (genericity fails)"
            )
        out.append((rep, len(hit)))
    return out


def graph_automorphisms_G(gg: AdmissibleGGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Automorphisms of the admissible G-graph: equivariant, monodromy
    preserving, legs fixed pointwise (transporting gg along one gives gg)."""
    graph = gg.graph
    return [iso for iso in graph.automorphism_group()
            if _equivariant(isomorphism_as_morphism(graph, graph, iso), gg, gg)]


def corestriction_boundary_multiplicity(
    gg: AdmissibleGGraph,
    normal: FiniteGroup,
    a: AdmissibleGGraph,
    alpha: GraphMorphism,
) -> tuple[Fraction, int]:
    """Multiplicity of a corestricted stratum component, and #Aut(alpha).

    alpha must be an isomorphism from the corestriction of gg to the
    quotient-graph A.  The multiplicity is the product over quotient-orbit
    representatives of edge monodromy-order ratios ord_G / ord_{G/N};
    #Aut(alpha) counts automorphisms of gg inducing the identity downstairs.
    """
    quotient_graph = corestrict_graph(gg, normal)
    _require_admissible(a, "input A")
    if alpha.source != quotient_graph.graph:
        raise CoverError("alpha's source is not the corestriction of gg")
    if alpha.target != a.graph:
        raise CoverError("alpha's target is not the graph of A")
    if alpha.source.n_half_edges != alpha.target.n_half_edges or (
        alpha.source.n_vertices != alpha.target.n_vertices
    ):
        raise CoverError("alpha is not an isomorphism of graphs")
    alpha.validate()
    if a.space != quotient_graph.space:
        raise CoverError("A lives on another space than the corestriction of gg")
    if not _equivariant(alpha, quotient_graph, a):
        raise CoverError("alpha is not an isomorphism of admissible quotient graphs")
    # match quotient half-edges back to N-orbits of gg half-edges; an edge's
    # ratio ord(h) / ord(hN) is #(<h> ∩ N) = ord(h) / r
    v_label, _ = gg.action.orbit_labels("vertex", normal)
    h_label, h_classes = gg.action.orbit_labels("half", normal)
    edge_mon = [gg.mon_half[h_classes[alpha.half_edge_map[h]]]
                for h, _ in a.action.edge_orbit_representatives()]
    mult = Fraction(prod(perm_order(h) // index_drop(gg.group, h, normal)[0] for h in edge_mon))
    # Aut(alpha): automorphisms of gg that descend to the identity
    aut_alpha = sum(
        all(h_label[x] == h_label[h] for h, x in enumerate(hperm))
        and all(v_label[x] == v_label[v] for v, x in enumerate(vperm))
        for vperm, hperm in graph_automorphisms_G(gg)
    )
    return mult, aut_alpha


# ---------------------------------------------------------------------------
# psi/kappa pullback formulas


class PullbackFormula(NamedTuple):
    """Symbolic right-hand side of a pullback rule: list of (kind, payload,
    coefficient) terms."""

    kind: str
    terms: tuple[tuple[str, str, Fraction], ...]

    def to_json(self) -> dict:
        return {
            "map": self.kind,
            "terms": [
                {"class": t, "data": p, "coefficient": rat_to_str(c)}
                for t, p, c in self.terms
            ],
        }


def pullback_psi_kappa_hurwitz(payload) -> PullbackFormula:
    """The pullback of a psi or kappa class along a named tautological map,
    read from a decoded `pullback` payload.

    Every payload names the map, "kind", and the class, "cls" ("psi" or
    "kappa").  Each kind reads these fields as well:

    - "restriction": none (identity coefficients);
    - "corestriction": the group "group" and generators "normal" of a normal
      subgroup N; kappa scales by 1/#N, psi by the order drop of "h";
    - "forgetful": "group"; psi loses the orbit of section divisors of "h",
      kappa_i loses #G psi^i for the "index" i >= 1.

    The class is checked first, so a restriction payload is judged by its
    two fields alone.  Each other kind reads only its own fields, in order:
    a corestriction "group", then "normal" and that N is normal, then "h"
    for psi; a forgetful map "group", then "h" for psi or "index" for kappa.
    An h is checked to lie in G once it is read, and an unknown kind is
    refused before any of these fields is read.
    """
    kind, cls = json_fields(payload, "a pullback payload", CoverError, ("kind", "cls"))
    if cls not in ("psi", "kappa"):
        raise CoverError("cls must be 'psi' or 'kappa'")
    if kind == "restriction":
        return PullbackFormula(kind, ((cls, "same point" if cls == "psi" else "same index", Fraction(1)),))
    what = f"a {kind} pullback"
    if kind == "corestriction":
        group, gens = json_fields(payload, what, CoverError, ("group", "normal"))
        group = FiniteGroup.from_json(group)
        gens = json_list(gens, "normal", CoverError)
        normal = group.generated_subgroup([perm_from_json(g) for g in gens])
        check_normal(group, normal)
        if cls == "kappa":
            return PullbackFormula(kind, (("kappa", "same index", Fraction(1, len(normal))),))
    elif kind == "forgetful":
        (group,) = json_fields(payload, what, CoverError, ("group",))
        group = FiniteGroup.from_json(group)
        if cls == "kappa":
            (i,) = json_fields(payload, what, CoverError, ("index",))
            if type(i) is not int or i < 1:
                raise CoverError(
                    f"kappa index {i!r} must be an integer >= 1 (kappa_0 is a constant)"
                )
            return PullbackFormula(
                kind,
                (
                    ("kappa", f"index {i}", Fraction(1)),
                    ("psi-new-point-power", f"exponent {i}", Fraction(-len(group))),
                ),
            )
    else:
        raise CoverError(f"unknown map kind {kind!r}")
    (h,) = json_fields(payload, what, CoverError, ("h",))
    h = perm_from_json(h)
    if h not in group:
        raise CoverError("h is not an element of the group")
    if kind == "corestriction":
        # hN has order r in G/N: psi scales by r / ord(h) = 1 / #(<h> ∩ N)
        r, _ = index_drop(group, h, normal)
        return PullbackFormula(
            kind,
            (("psi", "any lift of the marked point", Fraction(r, perm_order(h))),),
        )
    reps = left_cosets(group, group.cyclic_subgroup(h)).reps
    return PullbackFormula(kind, (("psi", "same point", Fraction(1)), *(
        ("section-divisor", f"relabeled section at coset of {tuple(perm_to_json(rep))}",
         Fraction(-1))
        for rep in reps)))


# ---------------------------------------------------------------------------
# convenience constructors


def wrap_trivial_group(graph: StableGraph) -> AdmissibleGGraph:
    """A classical stable graph as an admissible graph for the trivial group."""
    group = trivial_group()
    e = group.identity
    space = HurwitzSpaceId(graph.genus(), group, (e,) * graph.n_legs)
    half_images = {t: tuple(range(graph.n_half_edges)) for t in group.generators}
    return _in_layout(space, graph, half_images, (e,) * graph.n_half_edges)
