"""The isomorphism enumerator against brute-force oracles and literature counts."""

import random

import pytest

from graph_oracles import oracle_automorphisms, oracle_morphisms
from covercalc.graphs import (
    GraphMorphism,
    StableGraph,
    enumerate_morphisms,
    enumerate_stable_graphs,
)
from covercalc.groups import invert

# (genus, legs) spaces swept pairwise, strata with at most three edges
SWEEP = [(1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0)]


@pytest.mark.parametrize("g,n", SWEEP)
def test_morphisms_match_the_permutation_search(g, n):
    graphs = enumerate_stable_graphs(g, n, 3)
    for source in graphs:
        for target in graphs:
            expected = oracle_morphisms(source, target)
            got = enumerate_morphisms(source, target)
            assert [m.encode() for m in got] == [m.encode() for m in expected]
            assert all(m.source == source and m.target == target for m in got)


@pytest.mark.parametrize("g,n", SWEEP)
def test_automorphisms_match_the_vertex_walk(g, n):
    for graph in enumerate_stable_graphs(g, n, 3):
        assert graph.automorphism_group() == oracle_automorphisms(graph)


@pytest.mark.parametrize(
    "g,n,count",
    [(2, 0, 7), (3, 0, 42), (0, 4, 4), (0, 5, 26), (1, 2, 5)],
)
def test_stratum_counts_match_the_literature(g, n, count):
    assert len(enumerate_stable_graphs(g, n, 3 * g - 3 + n)) == count


def test_automorphism_counts_of_theta_and_dumbbell():
    theta = StableGraph((0, 0), (0, 1, 0, 1, 0, 1), (1, 0, 3, 2, 5, 4), ())
    dumbbell = StableGraph((0, 0), (0, 0, 1, 1, 0, 1), (1, 0, 3, 2, 5, 4), ())
    assert len(theta.automorphism_group()) == 12
    assert len(dumbbell.automorphism_group()) == 8


def _relabel(graph: StableGraph, rng: random.Random) -> StableGraph:
    """The same graph with vertices and half-edges renamed at random."""
    vnew = list(range(graph.n_vertices))
    hnew = list(range(graph.n_half_edges))
    rng.shuffle(vnew)
    rng.shuffle(hnew)
    genera, hv, inv = [0] * len(vnew), [0] * len(hnew), [0] * len(hnew)
    for v, g in enumerate(graph.genera):
        genera[vnew[v]] = g
    for h in range(graph.n_half_edges):
        hv[hnew[h]] = vnew[graph.half_edge_vertex[h]]
        inv[hnew[h]] = hnew[graph.involution[h]]
    legs = tuple(vnew[v] for v in graph.leg_vertex)
    return StableGraph(tuple(genera), tuple(hv), tuple(inv), legs)


def test_isomorphisms_onto_a_relabeled_copy():
    rng = random.Random(5)
    graphs = enumerate_stable_graphs(2, 2, 3)
    for graph in graphs:
        copy = _relabel(graph, rng)
        isos = list(graph.isomorphisms(copy))
        assert len(isos) == len(graph.automorphism_group())
        for vperm, hperm in isos:
            GraphMorphism(graph, copy, vperm, invert(hperm)).validate()
        others = [o for o in graphs if o.canonical_key() != graph.canonical_key()]
        assert not any(next(graph.isomorphisms(o), None) for o in others)
