import itertools
import random

import pytest

from covercalc.graphs import (
    GraphError,
    GraphMorphism,
    StableGraph,
    contract_edges,
    enumerate_generic_AB,
    enumerate_morphisms,
    enumerate_stable_graphs,
    trivial_graph,
)


def one_edge_separating(g1: int, g2: int, legs=()) -> StableGraph:
    """Two vertices of genera g1, g2 joined by one edge; legs on vertex 0."""
    return StableGraph((g1, g2), (0, 1), (1, 0), tuple(legs))


def two_loop_vertex() -> StableGraph:
    """Genus-0 vertex with two self-loops (genus 2 total)."""
    return StableGraph((0,), (0, 0, 0, 0), (1, 0, 3, 2), ())


def loop_graph(g0: int, n: int = 1) -> StableGraph:
    """One vertex of genus g0 with a self-loop and n legs."""
    return StableGraph((g0,), (0, 0), (1, 0), tuple([0] * n))


def test_genus_examples():
    assert trivial_graph(2, 0).genus() == 2
    assert two_loop_vertex().genus() == 2
    for h in (1, 2, 3):
        assert one_edge_separating(h, h).genus() == 2 * h


def test_validation_rejects_bad_graphs():
    with pytest.raises(GraphError):
        StableGraph((0,), (), (), ()).validate()  # unstable vertex
    # two stable genus-2 vertices: a genus-1 vertex alone would be unstable
    with pytest.raises(GraphError, match="graph is not connected"):
        StableGraph((2, 2), (), (), ()).validate()
    with pytest.raises(GraphError):
        StableGraph((1,), (0, 0), (0, 1), ()).validate()  # involution fixes


def test_automorphism_counts():
    assert len(trivial_graph(2, 0).automorphism_group()) == 1
    assert len(one_edge_separating(1, 1).automorphism_group()) == 2
    assert len(two_loop_vertex().automorphism_group()) == 8
    # ordered legs are fixed: separating legs breaks the swap
    assert len(one_edge_separating(1, 1, legs=(0,)).automorphism_group()) == 1


def test_automorphisms_form_a_group():
    for graph in [two_loop_vertex(), one_edge_separating(1, 1), loop_graph(1)]:
        autos = graph.automorphism_group()
        table = set(autos)
        for (v1, h1), (v2, h2) in itertools.product(autos, repeat=2):
            comp = (
                tuple(v1[v2[v]] for v in range(graph.n_vertices)),
                tuple(h1[h2[h]] for h in range(graph.n_half_edges)),
            )
            assert comp in table


def test_contract_edges_examples():
    g = one_edge_separating(1, 1)
    same, morphism = contract_edges(g, set())
    assert same == g
    morphism.validate()

    merged, morphism = contract_edges(g, {g.edge_of(0)})
    assert merged == trivial_graph(2, 0)
    morphism.validate()

    tl = two_loop_vertex()
    once, _ = contract_edges(tl, {tl.edge_of(0)})
    assert once.genus() == 2 and once.n_edges == 1 and once.genera == (1,)


def test_contraction_preserves_genus_randomized():
    rng = random.Random(11)
    pool = [g for g in enumerate_stable_graphs(2, 1, 3)]
    for graph in pool:
        edges = graph.edges()
        if not edges:
            continue
        subset = {e for e in edges if rng.random() < 0.5}
        contracted, morphism = contract_edges(graph, subset)
        contracted.validate()
        morphism.validate()
        assert contracted.genus() == graph.genus()


# v0 -e1- v1 -e2- v2 of genera 1, 0, 1 with a leg on v1: half-edges 0, 1
# are e1 and 2, 3 are e2
CHAIN = StableGraph((1, 0, 1), (0, 1, 1, 2), (1, 0, 3, 2), (1,))


def test_morphism_fibers_come_from_the_contracted_edges():
    # e2 contracted: the fiber over vertex 1 is {v1, v2}, of genus 1
    target = one_edge_separating(1, 1, legs=(1,))
    GraphMorphism(CHAIN, target, (0, 1, 1), (0, 1)).validate()
    # a contracted loop adds one to the genus of its fiber
    GraphMorphism(loop_graph(0, 3), trivial_graph(1, 3), (0,), ()).validate()


FIBER_REFUSALS = {
    # e2 is contracted, but v1 and v2 go to different vertices
    "contracted edge across fibers": (
        CHAIN, one_edge_separating(1, 1, legs=(1,)), (0, 1, 0), (0, 1),
        "contracted edge joins different fibers"),
    # both edges kept, onto a banana: the fiber {v0, v2} has no edge inside
    "fiber in two parts": (
        CHAIN, StableGraph((1, 0), (0, 1, 1, 0), (1, 0, 3, 2), (1,)), (0, 1, 0), (0, 1, 2, 3),
        "fiber over vertex 0 is not connected"),
    # the contracted loop gives the fiber genus 1, not 0
    "fiber of the wrong genus": (
        loop_graph(0, 3), trivial_graph(0, 3), (0,), (),
        "fiber over vertex 0 has wrong genus"),
}


@pytest.mark.parametrize("source, target, vertex_map, half_edge_map, message",
                         FIBER_REFUSALS.values(), ids=FIBER_REFUSALS.keys())
def test_morphism_fiber_refusals(source, target, vertex_map, half_edge_map, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        GraphMorphism(source, target, vertex_map, half_edge_map).validate()


def test_enumerate_stable_graphs_counts():
    # genus 1 with 1 leg and at most 1 edge: smooth graph + irreducible loop
    graphs = enumerate_stable_graphs(1, 1, 1)
    assert len(graphs) == 2
    # there is no stable graph of genus 1 with no legs
    assert enumerate_stable_graphs(1, 0, 2) == ()
    # all generated graphs validate, have the right genus and leg count
    for g in enumerate_stable_graphs(2, 2, 2):
        g.validate()
        assert g.genus() == 2 and g.n_legs == 2


def test_morphism_enumeration_small():
    sep = one_edge_separating(1, 1)
    assert len(enumerate_morphisms(sep, trivial_graph(2, 0))) == 1
    assert len(enumerate_morphisms(sep, sep)) == 2  # identity and flip
    assert len(enumerate_morphisms(trivial_graph(2, 0), sep)) == 0


def test_generic_ab_edgeless_cases():
    t = trivial_graph(2, 0)
    assert len(enumerate_generic_AB(t, t)) == 1
    sep = one_edge_separating(1, 1)
    triples = enumerate_generic_AB(t, sep)
    assert len(triples) == 1
    assert triples[0].gamma.canonical_key() == sep.canonical_key()
    assert triples[0].common_edges() == ()


def test_generic_ab_separating_self_intersection():
    # A = B = one-edge separating genus-2 graph.  The fiber product over a
    # generic 2-component curve C has groupoid cardinality |Aut C| = 4 over
    # the 2x2 orderings, matching exactly two triple classes on gamma = A:
    # the matched pairing and the flipped one.  No larger gamma occurs (the
    # would-be 3-vertex chain has an unstable middle vertex).
    sep = one_edge_separating(1, 1)
    triples = enumerate_generic_AB(sep, sep)
    assert len(triples) == 2
    for t in triples:
        assert t.gamma.canonical_key() == sep.canonical_key()
        assert len(t.common_edges()) == 1


def test_generic_ab_loop_self_intersection_genus11():
    # two classes: branch labelings matched or swapped; both carry the
    # excess factor from the single common edge
    lp = loop_graph(0, 1)
    triples = enumerate_generic_AB(lp, lp)
    assert len(triples) == 2
    for t in triples:
        assert t.gamma.canonical_key() == lp.canonical_key()
        assert len(t.common_edges()) == 1


def test_generic_ab_loop_against_separating_genus12():
    # bridge-plus-loop is the unique mutual degeneration; the loop flip is
    # absorbed by Aut(gamma), leaving a single class with no common edge
    d = StableGraph((1, 0), (0, 1), (1, 0), (1, 1))
    a = loop_graph(0, 2)
    triples = enumerate_generic_AB(d, a)
    assert len(triples) == 1
    assert triples[0].gamma.n_edges == 2
    assert triples[0].common_edges() == ()


def test_generic_ab_no_common_degeneration():
    # genus 1 with 2 legs: the separating graph (legs on the rational side)
    # and the 2-gon with split legs admit no common generic degeneration
    d = StableGraph((1, 0), (0, 1), (1, 0), (1, 1))
    two_gon = StableGraph((0, 0), (0, 1, 0, 1), (1, 0, 3, 2), (0, 1))
    d.validate()
    two_gon.validate()
    assert enumerate_generic_AB(d, two_gon) == []


def test_generic_ab_symmetry_and_genus():
    graphs = [g for g in enumerate_stable_graphs(1, 2, 1)]
    for a, b in itertools.product(graphs, repeat=2):
        ab = enumerate_generic_AB(a, b)
        ba = enumerate_generic_AB(b, a)
        assert len(ab) == len(ba)
        for t in ab:
            assert t.gamma.genus() == a.genus()
            t.to_A.validate()
            t.to_B.validate()


def test_graph_json_round_trip():
    g = one_edge_separating(1, 1, legs=(0, 1))
    assert StableGraph.from_json(g.to_json()) == g
