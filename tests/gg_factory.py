"""Randomized admissible G-graph constructions and targeted mutations.

Templates produce graphs that satisfy all admissibility conditions by
construction (with globally Riemann-Hurwitz-consistent space data);
mutations break exactly one named condition, keeping the others intact so
the validator's label can be asserted.
"""

from __future__ import annotations

import random

from covercalc.gcover import AdmissibleGGraph, GAction, HurwitzSpaceId
from covercalc.graphs import StableGraph
from covercalc.groups import compose, cyclic_group, invert, symmetric_group


def _z2_gp(h: int) -> AdmissibleGGraph:
    """Two genus-h components swapped over a fixed rational bridge."""
    z2 = cyclic_group(2)
    s = z2.generators[0]
    e = z2.identity
    graph = StableGraph((h, h, 0), (0, 2, 1, 2), (1, 0, 3, 2), (2, 2))
    space = HurwitzSpaceId(2 * h, z2, (s, s))
    action = GAction.from_generators(graph, z2, {s: ((1, 0, 2), (2, 3, 0, 1), (0, 1))})
    return AdmissibleGGraph(space, graph, action, (e,) * 4, (s, s))


def _polygon(m: int, g0: int, with_legs: bool) -> AdmissibleGGraph:
    zm = cyclic_group(m)
    c = zm.generators[0]
    e = zm.identity
    hv, inv = [], []
    for i in range(m):
        hv.extend([i, (i + 1) % m])
        inv.extend([2 * i + 1, 2 * i])
    legs = tuple(range(m)) if with_legs else ()
    graph = StableGraph(tuple([g0] * m), tuple(hv), tuple(inv), legs)
    xi = (e,) if with_legs else ()
    space = HurwitzSpaceId(1 + m * g0, zm, xi)
    vperm = tuple((i + 1) % m for i in range(m))
    hperm = tuple((x + 2) % (2 * m) for x in range(2 * m))
    lperm = tuple((i + 1) % m for i in range(m)) if with_legs else ()
    action = GAction.from_generators(graph, zm, {c: (vperm, hperm, lperm)})
    mon_half = tuple(e for _ in range(2 * m))
    mon_leg = tuple(e for _ in range(len(legs)))
    return AdmissibleGGraph(space, graph, action, mon_half, mon_leg)


def _z2_loop_orbit(gamma: int) -> AdmissibleGGraph:
    """Single fixed vertex with two loops swapped freely by Z/2."""
    z2 = cyclic_group(2)
    s = z2.generators[0]
    e = z2.identity
    graph = StableGraph((gamma,), (0, 0, 0, 0), (1, 0, 3, 2), ())
    space = HurwitzSpaceId(gamma + 2, z2, ())
    action = GAction.from_generators(graph, z2, {s: ((0,), (2, 3, 0, 1), ())})
    return AdmissibleGGraph(space, graph, action, (e,) * 4, ())


def _z2_fixed_edge(g0: int, g1: int) -> AdmissibleGGraph:
    """Edge fixed pointwise by Z/2 with monodromy s; one ramified leg each.

    Vertexwise Riemann-Hurwitz needs both genera even.
    """
    if g0 % 2 or g1 % 2:
        raise ValueError("fixed-edge template needs even vertex genera")
    z2 = cyclic_group(2)
    s = z2.generators[0]
    graph = StableGraph((g0, g1), (0, 1), (1, 0), (0, 1))
    space = HurwitzSpaceId(g0 + g1, z2, (s, s))
    action = GAction.from_generators(graph, z2, {s: ((0, 1), (0, 1), (0, 1))})
    return AdmissibleGGraph(space, graph, action, (s, s), (s, s))


def _s3_three_cycle_legs(extra: int) -> AdmissibleGGraph:
    """One fixed vertex with a marked orbit of stabilizer order 3 in S3."""
    s3 = symmetric_group(3)
    rot = (1, 2, 0)
    graph = StableGraph((3 + 6 * extra,), (), (), (0, 0))
    space = HurwitzSpaceId(3 + 6 * extra, s3, (rot,))
    gen_images = {
        g: ((0,), (), space.canonical_leg_action[g]) for g in s3.generators
    }
    action = GAction.from_generators(graph, s3, gen_images)
    return AdmissibleGGraph(
        space, graph, action, (), space.canonical_leg_monodromy
    )


def _z3_fixed_edge(g0: int, g1: int) -> AdmissibleGGraph:
    """Edge fixed pointwise by Z/3 with monodromy (c, c^2); legs c and c^2.

    Vertexwise Riemann-Hurwitz needs both genera divisible by 3.
    """
    if g0 % 3 or g1 % 3:
        raise ValueError("Z/3 fixed-edge template needs genera divisible by 3")
    z3 = cyclic_group(3)
    c = z3.generators[0]
    c2 = compose(c, c)
    graph = StableGraph((g0, g1), (0, 1), (1, 0), (0, 1))
    space = HurwitzSpaceId(g0 + g1, z3, (c, c2))
    action = GAction.from_generators(graph, z3, {c: ((0, 1), (0, 1), (0, 1))})
    return AdmissibleGGraph(space, graph, action, (c, c2), (c, c2))


def _edgeless(group_name: str, genus_prime: int) -> AdmissibleGGraph:
    group = cyclic_group(2) if group_name == "z2" else symmetric_group(3)
    n = len(group)
    g = n * (genus_prime - 1) + 1
    graph = StableGraph((g,), (), (), ())
    space = HurwitzSpaceId(g, group, ())
    gen_images = {t: ((0,), (), ()) for t in group.generators}
    action = GAction.from_generators(graph, group, gen_images)
    return AdmissibleGGraph(space, graph, action, (), ())


def random_valid_graph(rng: random.Random) -> AdmissibleGGraph:
    kind = rng.randrange(7)
    if kind == 0:
        return _z2_gp(rng.randint(1, 3))
    if kind == 1:
        g0 = rng.randint(0, 2)
        return _polygon(rng.randint(2, 5), g0, with_legs=(g0 == 0 or rng.random() < 0.5))
    if kind == 2:
        return _z2_loop_orbit(rng.choice([1, 3]))
    if kind == 3:
        g0 = 2 * rng.randint(1, 2)
        return _z2_fixed_edge(g0, g0 + rng.choice([0, 2]))
    if kind == 4:
        return _s3_three_cycle_legs(rng.randint(0, 1))
    if kind == 5:
        return _z3_fixed_edge(3 * rng.randint(1, 2), 3 * rng.randint(1, 2))
    return _edgeless(rng.choice(["z2", "s3"]), rng.randint(2, 3))


MUTATION_KINDS = (
    "genus",
    "xi-agreement",
    "stabilizer",
    "equivariance",
    "edge-collapse",
    "balancing",
)


def mutate(kind: str, rng: random.Random) -> tuple[AdmissibleGGraph, str]:
    """A graph violating exactly the named condition (label to assert)."""
    if kind == "genus":
        gg = random_valid_graph(rng)
        genera = list(gg.graph.genera)
        genera[0] += 1
        graph = StableGraph(
            tuple(genera),
            gg.graph.half_edge_vertex,
            gg.graph.involution,
            gg.graph.leg_vertex,
        )
        action = GAction(
            graph, gg.group, gg.action.vertex, gg.action.half, gg.action.leg
        )
        return (
            AdmissibleGGraph(gg.space, graph, action, gg.mon_half, gg.mon_leg),
            "genus",
        )
    if kind == "xi-agreement":
        # invert a whole ramified leg orbit of order >= 3: stabilizers and
        # equivariance survive, the distinguished value no longer matches xi
        gg = _s3_three_cycle_legs(rng.randint(0, 1))
        mon_leg = tuple(invert(h) for h in gg.mon_leg)
        return (
            AdmissibleGGraph(gg.space, gg.graph, gg.action, gg.mon_half, mon_leg),
            "xi-agreement",
        )
    if kind == "stabilizer":
        # nontrivial monodromy on a free edge orbit, balanced and equivariant
        gg = _z2_loop_orbit(rng.choice([1, 3]))
        s = gg.group.generators[0]
        return (
            AdmissibleGGraph(gg.space, gg.graph, gg.action, (s, s, s, s), gg.mon_leg),
            "stabilizer",
        )
    if kind == "equivariance":
        # wrong conjugate at the non-distinguished leg of an order-3 orbit
        gg = _s3_three_cycle_legs(rng.randint(0, 1))
        mon_leg = list(gg.mon_leg)
        mon_leg[1] = invert(mon_leg[1])
        return (
            AdmissibleGGraph(gg.space, gg.graph, gg.action, gg.mon_half, tuple(mon_leg)),
            "equivariance",
        )
    if kind == "edge-collapse":
        # re-pair the loops so the involution partner lies in the same orbit
        gg = _z2_loop_orbit(rng.choice([1, 3]))
        graph = StableGraph(
            gg.graph.genera,
            gg.graph.half_edge_vertex,
            (2, 3, 0, 1),
            gg.graph.leg_vertex,
        )
        action = GAction(
            graph, gg.group, gg.action.vertex, gg.action.half, gg.action.leg
        )
        return (
            AdmissibleGGraph(gg.space, graph, action, gg.mon_half, gg.mon_leg),
            "edge-collapse",
        )
    if kind == "balancing":
        # both edge monodromies c instead of (c, c^2) in the Z/3 fixed edge
        gg = _z3_fixed_edge(3 * rng.randint(1, 2), 3 * rng.randint(1, 2))
        c = gg.mon_half[0]
        return (
            AdmissibleGGraph(gg.space, gg.graph, gg.action, (c, c), gg.mon_leg),
            "balancing",
        )
    raise ValueError(f"unknown mutation kind {kind!r}")
