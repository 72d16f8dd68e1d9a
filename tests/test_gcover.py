import itertools
import json
import random
from fractions import Fraction

import pytest

import golden_corpus
from gcover_corpus import CORPUS as GCOVER_CORPUS, identity_morphism, subgroups_of
from gcover_oracles import action_tables_by_walk, equivariant_morphism, restricted_legs_by_relabel
from gcover_oracles import trivial_wrapping_inline
from gg_factory import MUTATION_KINDS, mutate, random_valid_graph
from covercalc import gcover
from covercalc.errors import ActionError, InvariantError
from covercalc.gcover import (
    AdmissibleGGraph,
    CoverError,
    GAction,
    HurwitzSpaceId,
    boundary_intersection_H,
    corestrict_graph,
    corestriction_boundary_multiplicity,
    corestriction_monodromy,
    graph_automorphisms_G,
    pullback_psi_kappa_hurwitz,
    quotient_genus,
    restrict_graph,
    restriction_boundary_exponents,
    restriction_monodromy,
    riemann_hurwitz_target,
    stabilizer_orders,
    validate_admissible_g_graph,
    wrap_trivial_group,
)
from covercalc.graphs import (
    StableGraph,
    enumerate_generic_AB,
    enumerate_stable_graphs,
    isomorphism_as_morphism,
)
from covercalc.groups import (
    FiniteGroup,
    compose,
    cyclic_group,
    perm_from_json,
    symmetric_group,
    trivial_group,
)
from covercalc.mbar import _expand_excess

LIBRARY = json.loads(GCOVER_CORPUS.read_text())


def test_riemann_hurwitz_examples():
    assert riemann_hurwitz_target(2, trivial_group(), ()) == (2, 0, 0)
    z2 = cyclic_group(2)
    s = z2.generators[0]
    assert riemann_hurwitz_target(4, z2, (s, s))[0] == 2
    with pytest.raises(CoverError):
        riemann_hurwitz_target(2, z2, (s,))


def test_space_rejects_xi_outside_the_group():
    s3 = symmetric_group(3)
    a3 = s3.generated_subgroup([(1, 2, 0)])
    t = (1, 0, 2)
    assert HurwitzSpaceId(4, s3, (t, t)).n_source_marks == 6
    with pytest.raises(CoverError, match="not an element of the group"):
        HurwitzSpaceId(4, a3, (t, t))
    for bad in ((0, 0, 1), (1, 0), (1, 0, 2, 3), (1, 0, -1)):
        with pytest.raises(CoverError, match="not a permutation of degree 3"):
            HurwitzSpaceId(4, s3, (bad, t))


def test_space_builds_each_cyclic_subgroup_once(monkeypatch):
    s3 = symmetric_group(3)
    built = []
    close = FiniteGroup.__post_init__

    def counted(group):
        built.append(group.generators)
        close(group)

    monkeypatch.setattr(FiniteGroup, "__post_init__", counted)
    xi = ((1, 0, 2), (0, 2, 1), (2, 1, 0)) * 2
    assert HurwitzSpaceId(4, s3, xi).target_genus == 0
    assert built == [(h,) for h in xi]  # one <xi_i> each, for its coset table


def test_restriction_monodromy_examples():
    # Z/4 over P^1 branched at two points (z -> z^4): genus 0
    z4 = cyclic_group(4)
    h = z4.generators[0]
    sub = z4.cyclic_subgroup((2, 3, 0, 1))
    new, ledger = restriction_monodromy(HurwitzSpaceId(0, z4, (h, compose(h, compose(h, h)))), sub)
    assert new.xi == ((2, 3, 0, 1), (2, 3, 0, 1))
    assert new.group == sub and new.genus == 0 and new.target_genus == 0
    assert [entry[3] for entry in ledger] == [2, 2]

    # S3 branched at two transpositions over an elliptic curve: genus 4
    s3 = symmetric_group(3)
    a3 = s3.generated_subgroup([(1, 2, 0)])
    t = (1, 0, 2)
    space = HurwitzSpaceId(4, s3, (t, t))
    new2, ledger2 = restriction_monodromy(space, a3)
    assert new2.xi == (s3.identity, s3.identity)
    assert new2.target_genus == 2
    assert [entry[3] for entry in ledger2] == [2, 2]

    # G1 = G with canonical relabeling: unchanged
    new3, _ = restriction_monodromy(space, s3)
    assert new3 == space and new3.xi == (t, t)


def test_relabeling_is_checked_against_the_coset_table():
    s3 = symmetric_group(3)
    t = (1, 0, 2)
    space = HurwitzSpaceId(4, s3, (t, t))
    z2 = s3.cyclic_subgroup(t)
    new, ledger = restriction_monodromy(space, z2)
    # <(12)> has two orbits on the three cosets of <(12)>: {<t>} and the rest;
    # each piece is pinned by the first coset of its orbit
    assert [(i, j, rep) for i, j, rep, _ in ledger] == [
        (i, j, rep) for i in range(2) for j, rep in enumerate((s3.identity, (0, 2, 1)))
    ]
    assert len(new.xi) == 4


def test_corestriction_monodromy_examples():
    s3 = symmetric_group(3)
    a3 = s3.generated_subgroup([(1, 2, 0)])
    t = (1, 0, 2)
    space = HurwitzSpaceId(4, s3, (t, t))
    new, q = corestriction_monodromy(space, a3)
    assert len(new.group) == 2 and new.genus == 2 and new.target_genus == 1
    assert new.xi[0] == new.xi[1] != new.group.identity
    trivial_new, _ = corestriction_monodromy(space, s3.generated_subgroup(()))
    assert len(trivial_new.group) == 6 and trivial_new.genus == 4
    full_new, _ = corestriction_monodromy(space, s3)
    assert full_new.xi == (full_new.group.identity,) * 2
    assert full_new.genus == full_new.target_genus == 1


def test_a_partial_quotient_without_integral_genus_is_refused():
    # V = <a, b> = Z/2 x Z/2 on 4 points, each branch point's 2 points fixed
    # by one factor: by <a> the ramification 2 gives 2g' - 2 = 1.  The space
    # has no cover (ROADMAP item 21); the genus reads only the datum.
    a, b = perm_from_json([2, 1, 4, 3]), perm_from_json([3, 4, 1, 2])
    v = FiniteGroup(4, (a, b))
    space = HurwitzSpaceId(3, v, (a, b))
    with pytest.raises(CoverError, match="^partial quotient has no integral genus$"):
        corestriction_monodromy(space, v.cyclic_subgroup(a))
    full, _ = corestriction_monodromy(space, v)
    assert full.genus == space.target_genus == 1
    trivial, _ = corestriction_monodromy(space, v.generated_subgroup(()))
    assert trivial.genus == 3


def test_validator_accepts_factory_graphs():
    rng = random.Random(20240610)
    for _ in range(40):
        gg = random_valid_graph(rng)
        assert validate_admissible_g_graph(gg) == []


def test_validator_rejects_each_mutation_kind():
    rng = random.Random(99)
    for kind in MUTATION_KINDS:
        gg, label = mutate(kind, rng)
        labels = {v.label for v in validate_admissible_g_graph(gg)}
        assert label in labels, f"{kind}: got {labels}"


def _two_loops_swapped(group, mon_half) -> AdmissibleGGraph:
    """`gg_factory._z2_loop_orbit(1)` over a group of order 2, with the given
    half-edge monodromy: its generator swaps the two loops freely."""
    graph = StableGraph((1,), (0, 0, 0, 0), (1, 0, 3, 2), ())
    action = GAction.from_generators(graph, group, {group.generators[0]: ((0,), (2, 3, 0, 1), ())})
    return AdmissibleGGraph(HurwitzSpaceId(3, group, ()), graph, action, mon_half, ())


def _stabilizer_violations(kind, points):
    return [("stabilizer", f"monodromy at {kind} {x} does not generate its stabilizer")
            for x in points]


def test_validator_rejects_each_way_to_break_the_stabilizer_condition():
    from gg_factory import _z2_fixed_edge

    # a monodromy outside G: Z/2 = <(0 1)> in S_3 with (1 2) and its
    # conjugate on the free loops, balanced and equivariant
    s, h = (1, 0, 2), (0, 2, 1)
    z2 = symmetric_group(3).cyclic_subgroup(s)
    conj = compose(s, compose(h, s))
    outside = _two_loops_swapped(z2, (h, h, conj, conj))
    assert h not in z2
    assert validate_admissible_g_graph(outside) == _stabilizer_violations("half", range(4))
    # a monodromy in G that moves its point: the free loops' stabilizers are
    # trivial
    z2 = cyclic_group(2)
    (t,) = z2.generators
    moving = _two_loops_swapped(z2, (t,) * 4)
    assert validate_admissible_g_graph(moving) == _stabilizer_violations("half", range(4))
    # a monodromy that fixes its point but generates less than the
    # stabilizer: the identity at the edge that Z/2 fixes pointwise
    fixed = _z2_fixed_edge(2, 2)
    e = fixed.group.identity
    smaller = AdmissibleGGraph(fixed.space, fixed.graph, fixed.action, (e, e), fixed.mon_leg)
    assert validate_admissible_g_graph(fixed) == []
    assert validate_admissible_g_graph(smaller) == _stabilizer_violations("half", range(2))


def test_edge_collapse_and_balancing_witnesses():
    rng = random.Random(5)
    gg, _ = mutate("edge-collapse", rng)
    violations = validate_admissible_g_graph(gg)
    assert {v.label for v in violations} == {"edge-collapse"}
    gg2, _ = mutate("balancing", rng)
    violations2 = validate_admissible_g_graph(gg2)
    assert {v.label for v in violations2} == {"balancing"}


def test_restrict_graph_round_trips():
    rng = random.Random(7)
    for _ in range(25):
        gg = random_valid_graph(rng)
        group = gg.group
        # restriction to the full group is a relabeling of the same graph
        full = restrict_graph(gg, group)
        assert validate_admissible_g_graph(full) == []
        assert full.graph.genera == gg.graph.genera
        # restriction to the trivial subgroup forgets the action
        triv = restrict_graph(gg, group.generated_subgroup(()))
        assert validate_admissible_g_graph(triv) == []
        assert len(triv.group) == 1
        assert triv.graph.n_legs == gg.graph.n_legs
        assert len(triv.space.xi) == gg.graph.n_legs


def test_corestrict_after_restrict_composes_on_monodromy():
    # restricting S3 to A3 and then corestricting by A3 matches the direct
    # projection of the full datum where both are defined
    s3 = symmetric_group(3)
    a3 = s3.generated_subgroup([(1, 2, 0)])
    rot = (1, 2, 0)
    space = HurwitzSpaceId(5, s3, (rot, invert_perm(rot)))
    restricted, _ = restriction_monodromy(space, a3)
    a3_group = restricted.group
    collapsed, _ = corestriction_monodromy(
        restricted, a3_group
    )
    assert all(h == collapsed.group.identity for h in collapsed.xi)
    assert collapsed.genus == space.target_genus == 1


def invert_perm(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def test_corestrict_graph_examples():
    rng = random.Random(11)
    # quotient of the polygon by the full rotation: one vertex, one loop
    from gg_factory import _polygon

    gg = _polygon(4, 1, with_legs=False)
    qq = corestrict_graph(gg, gg.group)
    assert qq.graph.n_vertices == 1 and qq.graph.n_edges == 1
    assert validate_admissible_g_graph(qq) == []
    # trivial normal subgroup: isomorphic graph
    same = corestrict_graph(gg, gg.group.generated_subgroup(()))
    assert same.graph.canonical_key() == gg.graph.canonical_key()
    # GP graph: quotient is (genus h) -- (genus 0 with both legs)
    from gg_factory import _z2_gp

    gp = _z2_gp(2)
    qgp = corestrict_graph(gp, gp.group)
    assert sorted(qgp.graph.genera) == [0, 2]
    assert qgp.graph.n_edges == 1
    assert validate_admissible_g_graph(qgp) == []


def test_corestrict_outputs_validate_randomized():
    rng = random.Random(13)
    for _ in range(20):
        gg = random_valid_graph(rng)
        qq = corestrict_graph(gg, gg.group)
        assert validate_admissible_g_graph(qq) == []


def test_boundary_intersection_trivial_group_reduction():
    corpus = list(enumerate_stable_graphs(1, 1, 2)) + list(
        enumerate_stable_graphs(2, 0, 2)
    )
    for a, b in itertools.product(corpus, repeat=2):
        if (a.genus(), a.n_legs) != (b.genus(), b.n_legs):
            continue
        classical = enumerate_generic_AB(a, b)
        equivariant = _equivariant_terms(wrap_trivial_group(a), wrap_trivial_group(b))
        cl = sorted((t.gamma.canonical_key(), len(t.common_edges())) for t in classical)
        eq = sorted(
            (t.gamma.graph.canonical_key(), len(t.excess_orbit_edges))
            for t in equivariant
        )
        assert cl == eq


@pytest.mark.parametrize("g, n", [(0, 5), (1, 2), (2, 1)])
def test_wrap_trivial_group_matches_the_inline_wrapping_on_every_stable_graph(g, n):
    graphs = enumerate_stable_graphs(g, n, 3 * g - 3 + n)
    assert {graph.n_edges for graph in graphs} == set(range(3 * g - 2 + n))
    for graph in graphs:
        gg = wrap_trivial_group(graph)
        assert validate_admissible_g_graph(gg) == []
        e = gg.group.identity
        assert gg.action.vertex == {e: tuple(range(graph.n_vertices))}
        assert gg.action.half == {e: tuple(range(graph.n_half_edges))}
        assert gg.action.leg == {e: tuple(range(graph.n_legs))}
        assert gg == trivial_wrapping_inline(graph)


def _equivariant_terms(a, b):
    """`boundary_intersection_H(a, b)`, each term's maps to A and B checked
    G-equivariant: `_force_g_structure` builds them so and does not check."""
    terms = boundary_intersection_H(a, b)
    for t in terms:
        assert equivariant_morphism(t.gamma, a, t.to_a)
        assert equivariant_morphism(t.gamma, b, t.to_b)
    return terms


GOLDEN_PAIRS = [e for e in json.loads(golden_corpus.CORPUS.read_text())
                if e["argv"][0] == "intersect-ggraph"]


@pytest.mark.parametrize("entry", GOLDEN_PAIRS, ids=[e["name"] for e in GOLDEN_PAIRS])
def test_forced_maps_are_equivariant_on_the_golden_pairs(entry):
    a, b = (AdmissibleGGraph.from_json(entry["files"][name]) for name in "ab")
    assert _equivariant_terms(a, b)


def test_boundary_intersection_H_examples():
    from gg_factory import _z2_gp

    gp = _z2_gp(1)
    space = gp.space
    z2 = space.group
    s = z2.generators[0]
    smooth = StableGraph((2,), (), (), (0, 0))
    act0 = GAction.from_generators(smooth, z2, {s: ((0,), (), (0, 1))})
    edgeless = AdmissibleGGraph(space, smooth, act0, (), (s, s))
    terms = boundary_intersection_H(edgeless, gp)
    assert len(terms) == 1 and terms[0].excess_orbit_edges == ()
    # single free edge orbit against itself: each term carries one factor
    self_terms = boundary_intersection_H(gp, gp)
    assert self_terms and all(len(t.excess_orbit_edges) == 1 for t in self_terms)


def test_restriction_boundary_exponents():
    from gg_factory import _z2_gp

    gp = _z2_gp(1)
    z2 = gp.group
    rest = restrict_graph(gp, z2.generated_subgroup(()))
    alpha = identity_morphism(rest.graph)
    ks = restriction_boundary_exponents(gp, z2.generated_subgroup(()), alpha)
    assert [k for _, k in ks] == [2]
    full = restrict_graph(gp, z2)
    alpha_full = identity_morphism(full.graph)
    ks_full = restriction_boundary_exponents(gp, z2, alpha_full)
    assert [k for _, k in ks_full] == [1]
    # a stratum map missing an orbit is rejected
    smooth = StableGraph((2,), (), (), (0, 0))
    s = z2.generators[0]
    act0 = GAction.from_generators(smooth, z2, {s: ((0,), (), (0, 1))})
    from covercalc.graphs import enumerate_morphisms

    bad_alpha = enumerate_morphisms(gp.graph, smooth)[0]
    with pytest.raises(CoverError):
        restriction_boundary_exponents(gp, z2.generated_subgroup(()), bad_alpha)


def test_corestriction_boundary_multiplicity():
    from gg_factory import _z2_fixed_edge, _z2_gp

    gp = _z2_gp(1)
    q = corestrict_graph(gp, gp.group)
    mult, aut = corestriction_boundary_multiplicity(
        gp, gp.group, q, identity_morphism(q.graph)
    )
    assert mult == 1  # unramified edge orbit: orders match
    assert aut == 2  # the component swap descends to the identity

    ramified = _z2_fixed_edge(2, 2)
    q2 = corestrict_graph(ramified, ramified.group)
    mult2, aut2 = corestriction_boundary_multiplicity(
        ramified, ramified.group, q2, identity_morphism(q2.graph)
    )
    assert mult2 == 2  # order-2 monodromy over a trivial quotient monodromy
    assert aut2 == 1

    # N = {1}: multiplicity 1 on any factory graph
    rng = random.Random(3)
    for _ in range(10):
        gg = random_valid_graph(rng)
        qq = corestrict_graph(gg, gg.group.generated_subgroup(()))
        m, _ = corestriction_boundary_multiplicity(
            gg, gg.group.generated_subgroup(()), qq, identity_morphism(qq.graph)
        )
        assert m == 1


def test_corestriction_boundary_multiplicity_refuses_a_foreign_alpha():
    from gg_factory import _z2_fixed_edge, _z2_gp

    gp = _z2_gp(1)
    q = corestrict_graph(gp, gp.group)
    ramified = _z2_fixed_edge(2, 2)
    q2 = corestrict_graph(ramified, ramified.group)
    # the quotients have genera (1, 0) and (1, 1): no isomorphism between them
    assert (q.graph.genera, q2.graph.genera) == ((1, 0), (1, 1))
    with pytest.raises(CoverError, match="^alpha's source is not the corestriction of gg$"):
        corestriction_boundary_multiplicity(gp, gp.group, q2, identity_morphism(q2.graph))
    with pytest.raises(CoverError, match="^alpha's target is not the graph of A$"):
        corestriction_boundary_multiplicity(gp, gp.group, q2, identity_morphism(q.graph))


def test_restriction_boundary_exponents_refuses_a_foreign_alpha():
    from gg_factory import _polygon, _z2_gp

    gp = _z2_gp(1)
    triangle = identity_morphism(_polygon(3, 0, True).graph)
    for sub in (gp.group.generated_subgroup(()), gp.group):
        with pytest.raises(CoverError, match="^alpha's source is not the restriction of gamma$"):
            restriction_boundary_exponents(gp, sub, triangle)


def _automorphisms_by_oracle(gg):
    graph = gg.graph
    return [iso for iso in graph.automorphism_group()
            if equivariant_morphism(gg, gg, isomorphism_as_morphism(graph, graph, iso))]


@pytest.mark.parametrize("entry", LIBRARY, ids=lambda e: e["name"])
def test_automorphisms_by_transport_match_the_index_loop_oracle(entry):
    # the same list in the same order, on the inadmissible corpus graphs too
    gg = AdmissibleGGraph.from_json(entry["graph"])
    assert graph_automorphisms_G(gg) == _automorphisms_by_oracle(gg)


def test_automorphisms_by_transport_match_the_oracle_on_random_graphs():
    rng = random.Random(41)
    for _ in range(200):
        gg = random_valid_graph(rng)
        assert graph_automorphisms_G(gg) == _automorphisms_by_oracle(gg)


def _loop_orbit_with_one_loop_flipped():
    """`_z2_loop_orbit(1)` and the same graph and space with the action
    conjugated by flipping the second loop: admissible, and the identity
    between the two is not Z/2-equivariant, while the flip is."""
    from gg_factory import _z2_loop_orbit

    gg = _z2_loop_orbit(1)
    s = gg.group.generators[0]
    flipped = GAction.from_generators(gg.graph, gg.group, {s: ((0,), (3, 2, 1, 0), ())})
    other = AdmissibleGGraph(gg.space, gg.graph, flipped, gg.mon_half, gg.mon_leg)
    flip = isomorphism_as_morphism(gg.graph, gg.graph, ((0,), (0, 1, 3, 2)))
    return gg, other, flip


def test_corestriction_boundary_multiplicity_refuses_a_non_equivariant_alpha():
    gg, other, flip = _loop_orbit_with_one_loop_flipped()
    trivial = gg.group.generated_subgroup(())
    q = corestrict_graph(gg, trivial)
    identity = identity_morphism(q.graph)
    assert validate_admissible_g_graph(other) == [] and other.space == q.space
    message = "^alpha is not an isomorphism of admissible quotient graphs$"
    # a mutated A under the identity, and A itself under the flip
    for a, alpha in ((other, identity), (q, flip)):
        assert not equivariant_morphism(q, a, alpha)
        with pytest.raises(CoverError, match=message):
            corestriction_boundary_multiplicity(gg, trivial, a, alpha)
    # the flip is an isomorphism onto the mutated A, with A's own numbers
    assert equivariant_morphism(q, other, flip)
    assert (corestriction_boundary_multiplicity(gg, trivial, other, flip)
            == corestriction_boundary_multiplicity(gg, trivial, q, identity))


def test_corestriction_boundary_multiplicity_refuses_an_inadmissible_A():
    gg, other, _ = _loop_orbit_with_one_loop_flipped()
    trivial = gg.group.generated_subgroup(())
    q = corestrict_graph(gg, trivial)
    s = gg.group.generators[0]
    bad = AdmissibleGGraph(q.space, q.graph, q.action, (s,) * 4, q.mon_leg)
    with pytest.raises(CoverError, match="^input A is not admissible: stabilizer$"):
        corestriction_boundary_multiplicity(gg, trivial, bad, identity_morphism(q.graph))


def test_corestriction_boundary_multiplicity_refuses_A_on_another_space():
    # the Z/4 polygon over its Z/2 quotient, against the same quotient graph
    # carried by a Z/2 that permutes 3 points instead of 2
    from gg_factory import _polygon

    gg = _polygon(4, 0, True)
    c = gg.group.generators[0]
    half = gg.group.cyclic_subgroup(compose(c, c))
    q = corestrict_graph(gg, half)
    z2 = symmetric_group(3).cyclic_subgroup((1, 0, 2))
    (qc,), (s,) = q.group.generators, z2.generators
    to_z2 = {q.group.identity: z2.identity, qc: s}
    space = HurwitzSpaceId(q.space.genus, z2, tuple(to_z2[h] for h in q.space.xi))
    images = {s: (q.action.vertex[qc], q.action.half[qc], q.action.leg[qc])}
    a = AdmissibleGGraph(space, q.graph, GAction.from_generators(q.graph, z2, images),
                         tuple(to_z2[h] for h in q.mon_half),
                         tuple(to_z2[h] for h in q.mon_leg))
    assert validate_admissible_g_graph(a) == [] and a.space != q.space
    with pytest.raises(CoverError, match="^A lives on another space than the corestriction of gg$"):
        corestriction_boundary_multiplicity(gg, half, a, identity_morphism(q.graph))


ADMISSIBLE = [e for e in LIBRARY if not e["name"].startswith("mutation-")]
MUTATIONS = [e for e in LIBRARY if e["name"].startswith("mutation-")]


def _assert_restricted_legs_match_the_oracle(gg, sub):
    restricted = restrict_graph(gg, sub)
    action, mon_leg = restricted_legs_by_relabel(gg, sub)
    assert {s: restricted.action.leg[s] for s in sub.generators} == action
    assert restricted.mon_leg == mon_leg


@pytest.mark.parametrize("entry", ADMISSIBLE, ids=lambda e: e["name"])
def test_restricted_legs_from_the_layout_match_the_relabel_oracle(entry):
    gg = AdmissibleGGraph.from_json(entry["graph"])
    for gens in entry["subgroups"]:
        _assert_restricted_legs_match_the_oracle(
            gg, gg.group.generated_subgroup(tuple(g) for g in gens))


def test_restricted_legs_from_the_layout_match_the_oracle_on_random_graphs():
    rng = random.Random(47)
    for _ in range(200):
        gg = random_valid_graph(rng)
        for sub in subgroups_of(gg.group):
            _assert_restricted_legs_match_the_oracle(gg, sub)


@pytest.mark.parametrize("entry", MUTATIONS, ids=lambda e: e["name"])
def test_restrict_and_corestrict_refuse_every_mutation_with_the_input_refusal(entry):
    gg = AdmissibleGGraph.from_json(entry["graph"])
    label = validate_admissible_g_graph(gg)[0].label
    message = f"^input gg is not admissible: {label}$"
    for gens in entry["subgroups"]:
        sub = gg.group.generated_subgroup(tuple(g) for g in gens)
        for construct in (restrict_graph, corestrict_graph):
            with pytest.raises(CoverError, match=message):
                construct(gg, sub)


@pytest.mark.parametrize("construct, what", [
    (restrict_graph, "restriction"), (corestrict_graph, "corestriction")])
def test_a_result_that_fails_validation_is_an_invariant_breach(monkeypatch, construct, what):
    # restriction to the trivial subgroup and the quotient by all of Z/2
    # both land on the trivial group; only that result is made to fail
    from gg_factory import _z2_gp

    gg = _z2_gp(1)
    sub = gg.group.generated_subgroup(()) if construct is restrict_graph else gg.group
    real = gcover.validate_admissible_g_graph
    monkeypatch.setattr(gcover, "validate_admissible_g_graph", lambda x: (
        [gcover.Violation("stabilizer", "forced")] if len(x.group) == 1 else real(x)))
    with pytest.raises(InvariantError, match=f"^the {what} is not admissible: stabilizer$"):
        construct(gg, sub)


def test_restriction_boundary_exponents_refuses_what_restrict_graph_rejects():
    refused = 0
    for entry in LIBRARY:
        gg = AdmissibleGGraph.from_json(entry["graph"])
        for gens in entry["subgroups"]:
            sub = gg.group.generated_subgroup(tuple(g) for g in gens)
            try:
                restrict_graph(gg, sub)
                continue
            except CoverError as err:
                message = str(err)
            # gamma's own identity is no way round the refusal
            with pytest.raises(CoverError) as refusal:
                restriction_boundary_exponents(gg, sub, identity_morphism(gg.graph))
            assert str(refusal.value) == message
            refused += 1
    assert refused > 0


@pytest.mark.parametrize("entry", LIBRARY, ids=lambda e: e["name"])
def test_excess_route_expands_one_factor_per_edge_orbit(entry):
    # the top Chern class of the excess bundle over every edge orbit is
    # prod over representatives (h, h') of (-psi_h - psi_h'): 2^k distinct
    # monomials, each with coefficient (-1)^k and one half from each
    gg = AdmissibleGGraph.from_json(entry["graph"])
    reps = gg.action.edge_orbit_representatives()
    k = len(reps)
    terms = _expand_excess(gg.graph, reps)
    monomials = {tuple(h for h, e in enumerate(dec.psi_half) if e) for _, dec in terms}
    assert len(terms) == len(monomials) == 2 ** k
    assert monomials == {tuple(sorted(pick)) for pick in itertools.product(*reps)}
    for coeff, dec in terms:
        assert coeff == (-1) ** k
        assert sorted(dec.psi_half) == [0] * (gg.graph.n_half_edges - k) + [1] * k
        assert not any(dec.psi_leg) and not any(dec.kappa)


def test_pullback_formula_examples():
    z4 = cyclic_group(4)
    n2 = z4.cyclic_subgroup((2, 3, 0, 1))
    f = pullback_psi_kappa_hurwitz(
        "corestriction", cls="psi", group=z4, normal=n2, h=z4.generators[0]
    )
    assert f.terms[0][2] == Fraction(1, 2)
    f_kappa = pullback_psi_kappa_hurwitz(
        "corestriction", cls="kappa", group=z4, normal=n2
    )
    assert f_kappa.terms[0][2] == Fraction(1, 2)
    f2 = pullback_psi_kappa_hurwitz("forgetful", cls="kappa", group=symmetric_group(3), index=2)
    assert dict((t[0], t[2]) for t in f2.terms) == {
        "kappa": Fraction(1),
        "psi-new-point-power": Fraction(-6),
    }
    f3 = pullback_psi_kappa_hurwitz("restriction", cls="psi")
    assert f3.terms == (("psi", "same point", Fraction(1)),)
    f4 = pullback_psi_kappa_hurwitz(
        "forgetful", cls="psi", group=cyclic_group(2), h=cyclic_group(2).identity
    )
    # psi minus one section divisor per coset of the trivial stabilizer
    assert len(f4.terms) == 3


def test_admissible_graph_json_round_trip():
    rng = random.Random(17)
    gg = random_valid_graph(rng)
    back = AdmissibleGGraph.from_json(gg.to_json())
    assert back.graph == gg.graph
    assert back.mon_half == gg.mon_half
    assert back.mon_leg == gg.mon_leg
    assert validate_admissible_g_graph(back) == []


def test_orbits_and_stabilizers_match_their_definitions():
    rng = random.Random(17)
    for _ in range(20):
        gg = random_valid_graph(rng)
        action = gg.action
        counts = {"vertex": gg.graph.n_vertices, "half": gg.graph.n_half_edges,
                  "leg": gg.graph.n_legs}
        for sub in subgroups_of(gg.group):
            for kind, count in counts.items():
                table = getattr(action, kind)
                labels, reps = action.orbit_labels(kind, sub)
                orders = stabilizer_orders(labels, sub)
                for x in range(count):
                    orbit = sorted({table[t][x] for t in sub.elements})
                    stab = [t for t in sub.elements if table[t][x] == x]
                    assert orders[x] == len(stab)
                    assert len(orbit) * len(stab) == len(sub)
                    assert reps[labels[x]] == orbit[0]
        reps = action.edge_orbit_representatives()
        orbits = [{gg.graph.edge_of(action.half[t][e[0]]) for t in gg.group.elements}
                  for e in reps]
        assert sorted(e for orbit in orbits for e in orbit) == list(gg.graph.edges())


def test_quotient_genus_solves_riemann_hurwitz():
    # the hyperelliptic involution of genus 2: six fixed points over P^1
    assert quotient_genus(2, 2, 6) == 0
    # a free Z/3 action on genus 4 has quotient genus 2
    assert quotient_genus(4, 3, 0) == 2
    assert quotient_genus(3, 2, 2) == Fraction(3, 2)


def test_corestrict_graph_rejects_a_vertex_without_integral_quotient_genus():
    from gg_factory import _z2_fixed_edge

    # genera (3, 1) keep the graph genus 4, so the validator, which does not
    # check Riemann-Hurwitz vertex by vertex, accepts the graph
    gg = _z2_fixed_edge(2, 2)
    graph = StableGraph((3, 1), gg.graph.half_edge_vertex, gg.graph.involution, gg.graph.leg_vertex)
    action = GAction(graph, gg.group, gg.action.vertex, gg.action.half, gg.action.leg)
    bad = AdmissibleGGraph(gg.space, graph, action, gg.mon_half, gg.mon_leg)
    assert validate_admissible_g_graph(bad) == []
    with pytest.raises(CoverError, match="vertex 0: quotient genus is not integral"):
        corestrict_graph(bad, gg.group)


# Forcing a G-structure (`_force_g_structure`) only transports images along
# the two maps; these two checks are what reject a transported image that
# is not an action by graph automorphisms.
@pytest.mark.parametrize("images", [
    ((0, 0, 2), (2, 3, 0, 1), (0, 1)),  # non-injective on the vertices
    ((1, 0, 2), (2, 2, 0, 1), (0, 1)),  # non-injective on the half-edges
    ((1, 2, 0), (2, 3, 0, 1), (0, 1)),  # a 3-cycle for an element of order 2
])
def test_from_generators_rejects_images_that_break_the_group_law(images):
    from gg_factory import _z2_gp

    gg = _z2_gp(1)
    _assert_both_refuse(gg.graph, gg.group, {gg.group.generators[0]: images})


def test_from_generators_rejects_s3_images_that_break_a_relation():
    # the 3-cycle swapping the two legs, whose cosets it fixes: sigma^3 = 1
    # but its image cubed is the swap
    from gg_factory import _s3_three_cycle_legs

    gg = _s3_three_cycle_legs(0)
    swap, cycle = gg.group.generators
    assert gg.action.leg[swap] == (1, 0) and gg.action.leg[cycle] == (0, 1)
    _assert_both_refuse(gg.graph, gg.group, {swap: ((0,), (), (1, 0)), cycle: ((0,), (), (1, 0))})


def _assert_both_refuse(graph, group, gen_images):
    message = "^generator images violate the group relations$"
    with pytest.raises(ActionError, match=message):
        GAction.from_generators(graph, group, gen_images)
    with pytest.raises(ActionError, match=message):
        action_tables_by_walk(graph, group, gen_images)


def _assert_tables_match_the_walk(gg):
    action = gg.action
    images = {t: (action.vertex[t], action.half[t], action.leg[t]) for t in gg.group.generators}
    assert action_tables_by_walk(gg.graph, gg.group, images) == (
        action.vertex, action.half, action.leg)
    assert len(action.vertex) == len(gg.group)


@pytest.mark.parametrize("entry", LIBRARY, ids=lambda e: e["name"])
def test_action_tables_by_closure_match_the_walk_oracle(entry):
    _assert_tables_match_the_walk(AdmissibleGGraph.from_json(entry["graph"]))


def test_action_tables_by_closure_match_the_walk_oracle_on_random_graphs():
    rng = random.Random(43)
    for _ in range(200):
        _assert_tables_match_the_walk(random_valid_graph(rng))


@pytest.mark.parametrize("build, images, detail", [
    ("_z2_gp", ((0, 1, 2), (2, 3, 0, 1), (0, 1)), "attachment not preserved at half-edge 0"),
    ("_polygon", ((1, 0), (2, 3, 0, 1), (0, 1)), "leg attachment not preserved at leg 0"),
])
def test_validator_rejects_vertex_images_that_break_an_attachment(build, images, detail):
    import gg_factory

    gg = gg_factory._z2_gp(1) if build == "_z2_gp" else gg_factory._polygon(2, 1, True)
    action = GAction.from_generators(gg.graph, gg.group, {gg.group.generators[0]: images})
    bad = AdmissibleGGraph(gg.space, gg.graph, action, gg.mon_half, gg.mon_leg)
    assert validate_admissible_g_graph(bad) == [("action", detail)]
