"""The gcover library corpus: outputs that no CLI command reaches.

Each entry of `golden/gcover.json` holds an admissible G-graph (its JSON
form), the generators of the subgroups it is tested against (trivial, full
and every cyclic subgroup) and the sha256 of every output below, so a
refactor that changes any result, error type or error message fails.

Per graph: the validator's violations, `graph_automorphisms_G` and
`edge_orbit_representatives`.  Per subgroup:
`restrict_graph` and `corestrict_graph` (`to_json`),
`restriction_boundary_exponents` against the identity of the restricted
graph, and `corestriction_boundary_multiplicity` against that of the
corestricted graph.  An output that raises is recorded as its exception
type and message.

Inputs are the `gg_factory` templates, seeded `random_valid_graph` graphs
and seeded mutations.  `tests/golden_corpus.py` recaptures this corpus
together with the CLI one.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "gcover.json"


def _plain(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    return x


def _digest(fn) -> str:
    try:
        value = ["ok", _plain(fn())]
    except Exception as err:  # every failure mode is part of the record
        value = ["error", type(err).__name__, str(err)]
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def subgroups_of(group) -> list:
    """Trivial, full, then every cyclic subgroup in order of first generator."""
    out = [group.generated_subgroup(()), group]
    seen = {frozenset(s.elements) for s in out}
    for g in group.elements:
        sub = group.cyclic_subgroup(g)
        if frozenset(sub.elements) not in seen:
            seen.add(frozenset(sub.elements))
            out.append(sub)
    return out


def identity_morphism(graph):
    """The identity GraphMorphism of a stable graph."""
    from covercalc.graphs import GraphMorphism

    return GraphMorphism(
        graph,
        graph,
        tuple(range(graph.n_vertices)),
        tuple(range(graph.n_half_edges)),
    )


def evaluate(graph_json: dict, subgroup_gens: list) -> dict[str, str]:
    """Digest of every recorded output for one graph."""
    from covercalc import gcover

    gg = gcover.AdmissibleGGraph.from_json(graph_json)
    out = {
        "validate": _digest(
            lambda: [v.to_json() for v in gcover.validate_admissible_g_graph(gg)]
        ),
        "automorphisms": _digest(lambda: gcover.graph_automorphisms_G(gg)),
        "edge_orbit_reps": _digest(gg.action.edge_orbit_representatives),
    }
    for k, gens in enumerate(subgroup_gens):
        sub = gg.group.generated_subgroup(tuple(g) for g in gens)
        out[f"restrict[{k}]"] = _digest(lambda: gcover.restrict_graph(gg, sub).to_json())
        out[f"corestrict[{k}]"] = _digest(lambda: gcover.corestrict_graph(gg, sub).to_json())

        def exponents():
            restricted = gcover.restrict_graph(gg, sub)
            return gcover.restriction_boundary_exponents(
                gg, sub, identity_morphism(restricted.graph)
            )

        out[f"exponents[{k}]"] = _digest(exponents)

        def multiplicity():
            quotient = gcover.corestrict_graph(gg, sub)
            return gcover.corestriction_boundary_multiplicity(
                gg, sub, quotient, identity_morphism(quotient.graph)
            )

        out[f"multiplicity[{k}]"] = _digest(multiplicity)
    return out


def build_graphs() -> list[tuple[str, object]]:
    """(name, admissible G-graph) for every corpus entry, in a fixed order."""
    from gg_factory import (
        MUTATION_KINDS,
        _edgeless,
        _polygon,
        _s3_three_cycle_legs,
        _z2_fixed_edge,
        _z2_gp,
        _z2_loop_orbit,
        _z3_fixed_edge,
        mutate,
        random_valid_graph,
    )

    graphs = [
        ("z2-gp-1", _z2_gp(1)),
        ("z2-gp-2", _z2_gp(2)),
        ("polygon-2-0-legs", _polygon(2, 0, True)),
        ("polygon-3-0-legs", _polygon(3, 0, True)),
        ("polygon-4-0-legs", _polygon(4, 0, True)),
        ("polygon-2-1", _polygon(2, 1, False)),
        ("polygon-3-1-legs", _polygon(3, 1, True)),
        ("polygon-5-2", _polygon(5, 2, False)),
        ("z2-loop-orbit-1", _z2_loop_orbit(1)),
        ("z2-loop-orbit-3", _z2_loop_orbit(3)),
        ("z2-fixed-edge-2-2", _z2_fixed_edge(2, 2)),
        ("z2-fixed-edge-2-4", _z2_fixed_edge(2, 4)),
        ("s3-three-cycle-legs-0", _s3_three_cycle_legs(0)),
        ("s3-three-cycle-legs-1", _s3_three_cycle_legs(1)),
        ("z3-fixed-edge-3-3", _z3_fixed_edge(3, 3)),
        ("z3-fixed-edge-3-6", _z3_fixed_edge(3, 6)),
        ("edgeless-z2-2", _edgeless("z2", 2)),
        ("edgeless-s3-3", _edgeless("s3", 3)),
    ]
    rng = random.Random(5)
    graphs += [(f"random-{i}", random_valid_graph(rng)) for i in range(22)]
    for kind in MUTATION_KINDS:
        for seed in range(8):
            graphs.append((f"mutation-{kind}-{seed}", mutate(kind, random.Random(seed))[0]))
    return graphs


def capture() -> list[dict]:
    corpus = []
    for name, gg in build_graphs():
        graph_json = gg.to_json()
        subgroup_gens = [[list(g) for g in sub.generators] for sub in subgroups_of(gg.group)]
        corpus.append({
            "name": name,
            "graph": graph_json,
            "subgroups": subgroup_gens,
            "outputs": evaluate(graph_json, subgroup_gens),
        })
    return corpus
