"""The isomorphism enumerator and the generic (A,B) search against brute-force
oracles and literature counts."""

import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from graph_oracles import (
    oracle_automorphisms,
    oracle_generic_AB,
    oracle_morphisms,
    oracle_one_edge_degenerations,
)
from covercalc import graphs
from covercalc.graphs import (
    GraphMorphism,
    StableGraph,
    _generic_classes,
    _one_edge_degenerations,
    contract_edges,
    enumerate_generic_AB,
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


def _triples(found):
    return [(t.gamma.to_json(), t.to_A.encode(), t.to_B.encode()) for t in found]


@pytest.mark.parametrize("g,n", SWEEP)
def test_generic_ab_matches_the_whole_space_search(g, n):
    graphs = enumerate_stable_graphs(g, n, 3)
    for a in graphs:
        for b in graphs:
            if a.n_edges + b.n_edges <= 3:
                assert _triples(enumerate_generic_AB(a, b)) == _triples(oracle_generic_AB(a, b))


# spaces of the sampled deeper pairs: (largest |E_A|+|E_B|, pairs drawn)
DEEP = {(2, 3): (5, 10), (2, 4): (4, 5), (1, 5): (4, 5), (3, 1): (6, 10)}


def _deep_pairs():
    """Seeded pairs with 4 to 6 edges in all.  Random pairs, which mostly
    share no degeneration, alternate with pairs contracted from one graph
    gamma onto complementary edge sets, at most one edge kept on both."""
    rng = random.Random(8)
    for (g, n), (most, count) in DEEP.items():
        pool = enumerate_stable_graphs(g, n, most)
        for i in range(count):
            total = rng.randint(4, most)
            if i % 2 == 0:
                a = rng.choice([x for x in pool if 1 <= x.n_edges < total])
                b = rng.choice([x for x in pool if x.n_edges == total - a.n_edges])
                yield a, b
                continue
            gamma = rng.choice([x for x in pool if total - 1 <= x.n_edges <= total])
            edges = list(gamma.edges())
            rng.shuffle(edges)
            cut = rng.randint(1, len(edges) - 1)
            shared = edges[: total - len(edges)]
            yield (contract_edges(gamma, set(edges[cut:]))[0],
                   contract_edges(gamma, set(edges[:cut]) - set(shared))[0])


@functools.cache
def _deep_runs() -> tuple:
    """(A, B, the oracle's triples) on each of the deeper pairs."""
    return tuple((a, b, tuple(oracle_generic_AB(a, b))) for a, b in _deep_pairs())


def test_generic_ab_matches_the_whole_space_search_on_deeper_pairs():
    sizes = []
    for a, b, expected in _deep_runs():
        assert 4 <= a.n_edges + b.n_edges <= 6
        found = _triples(enumerate_generic_AB(a, b))
        assert found == _triples(expected), (a, b)
        sizes.append(len(found))
    assert len(sizes) >= 30
    # the sample holds pairs with no common degeneration, and pairs with one
    assert 0 in sizes and max(sizes) > 0


def _sweep_pairs(most: int):
    """Every pair of one SWEEP space with at most `most` edges in all."""
    for g, n in SWEEP:
        pool = enumerate_stable_graphs(g, n, most)
        for a in pool:
            for b in pool:
                if a.n_edges + b.n_edges <= most:
                    yield a, b


@functools.cache
def _oracle_runs() -> tuple:
    """(A, B, the oracle's triples) on every SWEEP pair with at most four
    edges in all, then on the deeper pairs."""
    swept = tuple((a, b, tuple(oracle_generic_AB(a, b))) for a, b in _sweep_pairs(4))
    return swept + _deep_runs()


def test_generic_classes_are_the_classes_the_whole_space_search_finds():
    sizes = []
    for a, b, expected in _oracle_runs():
        found = _generic_classes(a, b)
        assert found == {t.gamma.canonical_key() for t in expected}, (a, b)
        sizes.append(len(found))
    assert 0 in sizes and max(sizes) > 1


def test_generic_ab_walks_no_degeneration_of_the_pair_space(monkeypatch):
    # the classes come from matchings, not from walks below A and B; the
    # vertex spaces A is opened along are smaller, and may still be walked,
    # as may the smooth graph of a pair of smooth graphs, zero steps deep
    runs = _oracle_runs()
    walk = graphs._degeneration_walk

    def refuse_the_pair_space(start, steps):
        if steps and (start.genus(), start.n_legs) == space:
            raise AssertionError(f"walked {steps} degenerations below {start}")
        return walk(start, steps)

    monkeypatch.setattr(graphs, "_degeneration_walk", refuse_the_pair_space)
    for a, b, expected in runs:
        space = (a.genus(), a.n_legs)
        assert _triples(enumerate_generic_AB(a, b)) == _triples(expected), (a, b)


@pytest.mark.parametrize("g,n", SWEEP)
def test_one_edge_degenerations_match_the_validating_generator(g, n):
    for graph in enumerate_stable_graphs(g, n, 3 * g - 3 + n):
        found = list(_one_edge_degenerations(graph))
        assert found == list(oracle_one_edge_degenerations(graph))
        for degen in found:
            degen.validate()


@pytest.mark.parametrize(
    "g,n,count",
    [(2, 0, 7), (3, 0, 42), (0, 4, 4), (0, 5, 26), (1, 2, 5)],
)
def test_stratum_counts_match_the_literature(g, n, count):
    assert len(enumerate_stable_graphs(g, n, 3 * g - 3 + n)) == count


# Each space with its largest edge count: the SWEEP spaces in full, then
# M̄_{0,6} and M̄_{2,3} up to four edges
WITHIN_SPACES = [(g, n, 3 * g - 3 + n) for g, n in SWEEP] + [(0, 6, 4), (2, 3, 4)]

_ONE_CLASS_AT_A_TIME = """
import json, sys
from covercalc.graphs import _first_met, enumerate_stable_graphs
found = []
for (g, n, e), order in json.loads(sys.argv[1]):
    keys = [graph.canonical_key() for graph in enumerate_stable_graphs(g, n, e)]
    found.append([_first_met(keys[i])[1].to_json() for i in order])
print(json.dumps(found))
"""


def test_each_class_alone_gets_its_graph_from_the_whole_space_walk():
    # a fresh interpreter, so no earlier call has met any class: each answer
    # is built from nothing but the one key asked for, in either order
    rng = random.Random(10)
    whole = [enumerate_stable_graphs(*space) for space in WITHIN_SPACES]
    orders = [rng.sample(range(len(graphs)), len(graphs)) for graphs in whole]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for flip in (False, True):
        asked = [order[::-1] if flip else order for order in orders]
        done = subprocess.run(
            [sys.executable, "-c", _ONE_CLASS_AT_A_TIME,
             json.dumps(list(zip(WITHIN_SPACES, asked)))],
            capture_output=True, text=True, env=env, check=True,
        )
        for graphs, order, found in zip(whole, asked, json.loads(done.stdout)):
            assert found == [graphs[i].to_json() for i in order]


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
