import ast
import itertools
import json
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

from covercalc.groups import cycle_type
from covercalc.hurwitz import TUPLE_CAP, HurwitzError, class_size, hurwitz_cover_count
from hurwitz_oracles import nodal_target_degree


def test_lemma_configuration_unique_small():
    # totally ramified / simple / (a,b): unique cover up to conjugation
    for a, b in [(2, 1), (1, 1), (2, 2)]:
        d = a + b
        assert hurwitz_cover_count(d, [[d], [2] + [1] * (d - 2), [a, b]]) == 1


def test_two_transpositions_degree_two():
    assert hurwitz_cover_count(2, [[2], [2]]) == 1


def test_type_permutation_invariance():
    d = 4
    types = [[4], [2, 1, 1], [3, 1]]
    base = hurwitz_cover_count(d, types)
    for perm in itertools.permutations(types):
        assert hurwitz_cover_count(d, list(perm)) == base


def test_weighted_mode_is_orbit_sum_of_inverse_centralizers():
    # the transitive double cover branched at two points has centralizer Z/2
    assert hurwitz_cover_count(2, [[2], [2]], weighted=True) == Fraction(1, 2)


def test_degree_bound_and_bad_partition():
    with pytest.raises(HurwitzError):
        hurwitz_cover_count(8, [[8], [8]])
    with pytest.raises(HurwitzError):
        hurwitz_cover_count(4, [[3], [4]])


def test_elliptic_style_count_simple_branching_degree2():
    # degree-2 covers of P^1 with 4 simple branch points: genus-1 double
    # cover, one class
    assert hurwitz_cover_count(2, [[2]] * 4) == 1


def test_nodal_target_degree_matches_generic():
    for a in range(1, 6):
        for b in range(1, a + 1):
            if a + b > 6:
                continue
            result = nodal_target_degree(a, b)
            assert result["total"] == 2 * max(a, b)


def test_nodal_target_degree_bookkeeping_structure():
    # contributions come from exactly the two degenerate cover types: one
    # totally ramified over the node (multiplicity a+b) and, when a != b,
    # one of node type (a-b, b, b) with the automorphism-corrected
    # contribution (a-b) b^2 / b^2
    for a, b in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 1), (5, 1)]:
        result = nodal_target_degree(a, b)
        by_type = result["by_node_type"]
        assert by_type[(a + b,)] == a + b
        small = min(a, b)
        other = tuple(sorted((a - b, small, small), reverse=True))
        assert by_type[other] == a - b
        assert set(by_type) == {(a + b,), other}
    for a in (1, 2, 3):
        result = nodal_target_degree(a, a)
        assert set(result["by_node_type"]) == {(2 * a,)}
        assert result["by_node_type"][(2 * a,)] == 2 * a


def test_is_transitive_matches_the_orbit_of_the_generated_group():
    import random

    from covercalc.groups import FiniteGroup
    from covercalc.hurwitz import is_transitive

    rng = random.Random(3)
    for _ in range(200):
        d = rng.randint(1, 6)
        perms = [tuple(rng.sample(range(d), d)) for _ in range(rng.randint(1, 3))]
        orbit = {g[0] for g in FiniteGroup(d, tuple(perms)).elements}
        assert is_transitive(d, perms) == (len(orbit) == d)


def test_class_sizes_count_the_permutations_of_each_cycle_type():
    for d in range(1, 7):
        counted = Counter(cycle_type(p) for p in itertools.permutations(range(d)))
        assert {parts: class_size(d, parts) for parts in counted} == counted
        assert sum(counted.values()) == factorial(d)


def _middle_tuples(d, types) -> int:
    return prod(class_size(d, tuple(sorted(t, reverse=True))) for t in types[1:-1])


def test_every_golden_and_benchmark_shape_is_under_the_tuple_cap():
    repo = Path(__file__).resolve().parent.parent
    shapes = [
        (int(e["argv"][2]), json.loads(e["argv"][4]))
        for e in json.loads((repo / "tests" / "golden" / "corpus.json").read_text())
        if e["argv"][0] == "hurwitz-count" and e["exit"] == 0
    ]
    # the benchmark's HURWITZ_SHAPES, and its d^(d-3) tree counts for d = 5, 6
    source = (repo / "perfbench" / "workloads.py").read_text()
    [listed] = [ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "HURWITZ_SHAPES"]
    shapes += listed + [(d, [[d]] + [[2] + [1] * (d - 2)] * (d - 1)) for d in (5, 6)]
    assert len(shapes) == 12
    assert max(_middle_tuples(d, types) for d, types in shapes) == 15**4 < TUPLE_CAP


def test_enumerations_over_the_tuple_cap_are_refused():
    # degree 6: 7 transpositions are 15^5 middle tuples, 8 are 15^6
    simple = [2, 1, 1, 1, 1]
    assert _middle_tuples(6, [simple] * 7) == 759375 <= TUPLE_CAP
    with pytest.raises(HurwitzError, match="11390625 tuples"):
        hurwitz_cover_count(6, [simple] * 8)
