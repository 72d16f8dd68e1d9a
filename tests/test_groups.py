import random

import pytest

from group_oracles import GroupHom, centralizer, direct_product, fiber_product_subgroup
from covercalc.groups import (
    FiniteGroup,
    GroupError,
    NotNormalError,
    QuotientGroup,
    check_normal,
    compose,
    coset_index,
    cycle_type,
    cyclic_group,
    index_drop,
    left_cosets,
    orbit_on_cosets,
    orbit_partition,
    invert,
    perm_from_cycles,
    perm_order,
    symmetric_group,
    trivial_group,
)


def s3():
    return symmetric_group(3)


def test_order_of_examples():
    g = s3()
    assert perm_order(g.identity) == 1
    assert (1, 0, 2) in g and perm_order((1, 0, 2)) == 2  # transposition (12)
    s4 = symmetric_group(4)
    assert (1, 2, 3, 0) in s4 and perm_order((1, 2, 3, 0)) == 4  # 4-cycle


def test_element_enumeration_sizes():
    assert len(s3()) == 6
    assert len(symmetric_group(4)) == 24
    assert len(cyclic_group(5)) == 5
    assert len(direct_product(cyclic_group(2), cyclic_group(3))) == 6


def test_left_cosets_examples():
    g = s3()
    assert left_cosets(g, g).reps == (g.identity,)
    h = g.cyclic_subgroup((1, 0, 2))
    reps = left_cosets(g, h).reps
    assert len(reps) == 3
    # representatives pairwise in distinct cosets
    cosets = [frozenset(compose(r, x) for x in h.elements) for r in reps]
    assert len(set(cosets)) == 3
    z4 = cyclic_group(4)
    h2 = z4.cyclic_subgroup((2, 3, 0, 1))  # (13)(24) as rotation^2
    assert len(left_cosets(z4, h2).reps) == 2


def _closure_labels(n: int, links: list[tuple[int, int]]) -> list[int]:
    """The least point of each point's class, by closing the relation: grow
    each point's class by every link that touches it until nothing changes."""
    classes = [{x} for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x, y in links:
            if classes[x] is not classes[y]:
                merged = classes[x] | classes[y]
                for z in merged:
                    classes[z] = merged
                changed = True
    return [min(c) for c in classes]


def test_orbit_partition_matches_the_closure_of_its_links():
    rng = random.Random(18)
    assert orbit_partition(0, []) == ()
    assert orbit_partition(3, [(1, 1), (2, 2)]) == (0, 1, 2)
    assert orbit_partition(4, [(3, 1), (3, 1), (1, 3), (2, 0)]) == (0, 1, 0, 1)
    for _ in range(300):
        n = rng.randint(1, 30)
        links = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        links += [(x, x) for x, _ in links[: rng.randint(0, 2)]]  # self-links
        links += links[: rng.randint(0, 3)]                       # repeated links
        rng.shuffle(links)
        assert orbit_partition(n, links) == tuple(_closure_labels(n, links)), (n, links)
        assert orbit_partition(n, iter(links)) == orbit_partition(n, links[::-1])


def test_orbit_on_cosets():
    g = s3()
    k = g.cyclic_subgroup((1, 0, 2))
    cosets = left_cosets(g, k)
    # H = G: transitive
    assert len(orbit_on_cosets(g, cosets)) == 1
    # H = 1: each coset alone
    assert len(orbit_on_cosets(g.generated_subgroup(()), cosets)) == 3
    # H = A3: one orbit of size 3
    a3 = g.generated_subgroup([(1, 2, 0)])
    orbits = orbit_on_cosets(a3, cosets)
    assert len(orbits) == 1 and len(orbits[0]) == 3


def test_quotient_examples():
    g = s3()
    q = QuotientGroup(g, g.generated_subgroup(()))
    assert len(q.group) == 6
    q2 = QuotientGroup(g, g)
    assert len(q2.group) == 1
    a3 = g.generated_subgroup([(1, 2, 0)])
    q3 = QuotientGroup(g, a3)
    assert len(q3.group) == 2
    with pytest.raises(NotNormalError) as err:
        QuotientGroup(g, g.cyclic_subgroup((1, 0, 2)))
    witness_g, witness_n = err.value.witness
    assert compose(witness_g, compose(witness_n, tuple(
        witness_g.index(i) for i in range(3)))) not in g.cyclic_subgroup((1, 0, 2))


def test_quotient_projection_is_homomorphism():
    g = symmetric_group(4)
    v4 = g.generated_subgroup([
        perm_from_cycles(4, [(0, 1), (2, 3)]),
        perm_from_cycles(4, [(0, 2), (1, 3)]),
    ])
    q = QuotientGroup(g, v4)
    assert len(q.group) == 6
    rng = random.Random(7)
    for _ in range(50):
        a = rng.choice(g.elements)
        b = rng.choice(g.elements)
        assert q.project(compose(a, b)) == compose(q.project(a), q.project(b))
    # rep_of is a section
    for x in q.group.elements:
        assert q.project(q.rep_of(x)) == x


def test_lagrange_enforced_on_construction():
    g = s3()
    # a subgroup is the closure of its generators: never a bare subset
    assert len(g.generated_subgroup([(1, 0, 2), (1, 2, 0)])) == 6
    with pytest.raises(GroupError, match="subgroup elements must lie in the parent group"):
        g.generated_subgroup([(1, 0, 2, 3)])
    with pytest.raises(GroupError, match="subgroup elements must lie in the parent group"):
        cyclic_group(3).generated_subgroup([(1, 0, 2)])
    s4, subgroups = _s4_subgroups_and_cyclics()
    assert all(len(s4) % len(k) == 0 for k in subgroups)


def test_orbit_sizes_sum():
    g = symmetric_group(4)
    k = g.cyclic_subgroup(perm_from_cycles(4, [(0, 1, 2)]))
    for hgens in [[(1, 0, 2, 3)], [(1, 2, 3, 0)], [(0, 2, 1, 3), (1, 0, 2, 3)]]:
        h = g.generated_subgroup([tuple(p) for p in hgens])
        cosets = left_cosets(g, k)
        orbits = orbit_on_cosets(h, cosets)
        assert sum(len(o) for o in orbits) == len(g) // len(k)
        # each orbit is the set of cosets t.rH over all t in h, not just generators
        for orbit in orbits:
            rep = cosets.reps[orbit[0]]
            assert {coset_index(cosets, compose(t, rep)) for t in h.elements} == set(orbit)


def test_cycle_type():
    assert cycle_type((1, 0, 2, 3)) == (2, 1, 1)
    assert cycle_type((1, 2, 3, 0)) == (4,)


def test_fiber_product():
    g = cyclic_group(2)
    ident = GroupHom.from_generator_images(g, g, {g.generators[0]: g.generators[0]})
    dp, fp = fiber_product_subgroup(g, g, ident, ident)
    # diagonal of Z/2 x Z/2
    assert len(fp) == 2
    assert len(dp) == 4


def test_group_json_round_trip():
    g = symmetric_group(4)
    assert FiniteGroup.from_json(g.to_json()) == g
    assert trivial_group().degree == 1


def _s4_subgroups():
    g = symmetric_group(4)
    return g, [
        g.generated_subgroup(()),
        g.generated_subgroup([(1, 0, 3, 2), (2, 3, 0, 1)]),  # V4
        g.generated_subgroup([(1, 2, 0, 3), (0, 2, 3, 1)]),  # A4
        g.cyclic_subgroup((1, 2, 3, 0)),
        g.cyclic_subgroup((1, 0, 2, 3)),
        g,
    ]


def test_centralizer_matches_definition_on_s4():
    g, subgroups = _s4_subgroups()
    for x in g.elements:
        fixing = [z for z in g.elements if compose(z, compose(x, invert(z))) == x]
        assert centralizer(g.elements, [x]) == fixing
        conjugates = {compose(z, compose(x, invert(z))) for z in g.elements}
        assert len(fixing) * len(conjugates) == len(g)
        for k in subgroups:
            candidates = list(k.elements)
            assert centralizer(candidates, [x]) == [z for z in candidates if z in fixing]
    pair = [(1, 0, 2, 3), (0, 1, 3, 2)]
    assert centralizer(g.elements, pair) == [
        z for z in centralizer(g.elements, pair[:1]) if z in centralizer(g.elements, pair[1:])
    ]


def test_index_drop_matches_definition_on_s4():
    g, subgroups = _s4_subgroups_and_cyclics()
    for h in g.elements:
        powers = [h]  # h, h^2, ..., h^ord(h) = 1
        while powers[-1] != g.identity:
            powers.append(compose(h, powers[-1]))
        for k in subgroups:
            meet = {p for p in powers if p in k}
            r, power = index_drop(g, h, k)
            assert r == min(e for e, p in enumerate(powers, 1) if p in k)
            assert power == powers[r - 1]
            assert set(g.cyclic_subgroup(power).elements) == meet
            assert perm_order(h) // r == len(meet)
    a4 = subgroups[2]
    with pytest.raises(GroupError, match="must lie in the parent group"):
        index_drop(a4, (1, 0, 2, 3), a4)
    with pytest.raises(GroupError, match="belongs to a different group"):
        index_drop(g, (1, 2, 3, 0), s3())


def test_check_normal_matches_definition_on_s4():
    g, subgroups = _s4_subgroups()
    for k in subgroups + [g.cyclic_subgroup(x) for x in g.elements]:
        normal = all(
            compose(z, compose(n, invert(z))) in k for z in g.elements for n in k.elements
        )
        if normal:
            check_normal(g, k)
            continue
        with pytest.raises(NotNormalError) as err:
            check_normal(g, k)
        witness_g, witness_n = err.value.witness
        assert witness_g in g.generators and witness_n in k
        assert compose(witness_g, compose(witness_n, invert(witness_g))) not in k


def _s4_subgroups_and_cyclics():
    g, subgroups = _s4_subgroups()
    return g, subgroups + [g.cyclic_subgroup(x) for x in g.elements]


def test_coset_table_on_s4_subgroups():
    g, subgroups = _s4_subgroups_and_cyclics()
    for k in subgroups:
        cosets = left_cosets(g, k)
        index = len(g) // len(k)
        # the ids run 0..index-1, numbered by first element, identity first
        assert cosets.reps[0] == g.identity == g.elements[0]
        first_seen = list(dict.fromkeys(cosets.ids))
        assert first_seen == list(range(index)) and len(cosets.reps) == index
        for i, rep in enumerate(cosets.reps):
            assert coset_index(cosets, rep) == i
            assert rep == min(compose(rep, x) for x in k.elements)
        # each element's id names the coset that contains it
        for x in g.elements:
            rep = cosets.reps[coset_index(cosets, x)]
            assert compose(invert(rep), x) in k
    with pytest.raises(GroupError):
        left_cosets(g, symmetric_group(3))


def test_generated_subgroups_are_closed():
    g, subgroups = _s4_subgroups_and_cyclics()
    s6 = symmetric_group(6)
    a6 = s6.generated_subgroup(
        [perm_from_cycles(6, [(0, 1, 2)]), perm_from_cycles(6, [(0, 1), (2, 3, 4, 5)])]
    )
    assert len(a6) == 360
    for k in subgroups + [a6]:
        members = set(k.elements)
        assert k.elements == tuple(sorted(members))
        assert all(k.position[x] == i for i, x in enumerate(k.elements))
        assert all(invert(a) in members for a in members)
        assert all(compose(a, b) in members for a in members for b in k.generators)
        assert all(compose(a, b) in members for a in members for b in members)


def test_rep_of_is_a_section():
    s4 = symmetric_group(4)
    v4 = s4.generated_subgroup([(1, 0, 3, 2), (2, 3, 0, 1)])
    s6 = symmetric_group(6)
    a6 = s6.generated_subgroup(
        [perm_from_cycles(6, [(0, 1, 2)]), perm_from_cycles(6, [(0, 1), (2, 3, 4, 5)])]
    )
    for group, normal, order in ((s4, v4, 6), (s6, a6, 2)):
        q = QuotientGroup(group, normal)
        assert len(q.group) == order
        for x in q.group.elements:
            assert q.project(q.rep_of(x)) == x
        assert q.rep_of(q.group.identity) == group.identity


def test_perm_order_matches_repeated_powers():
    for x in symmetric_group(5).elements + symmetric_group(6).elements:
        k, p = 1, x
        while p != tuple(range(len(x))):
            p, k = compose(x, p), k + 1
        assert perm_order(x) == k
    # tuples that are not permutations still get an answer
    assert perm_order((0, 0)) == 1
