import ast
import hashlib
import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

from covercalc.cli import main
from covercalc.groups import cycle_type, perm_from_cycles
from covercalc.hurwitz import (
    HurwitzError,
    _deals,
    _transitive_tuples,
    character,
    class_size,
    hurwitz_cover_count,
    partitions,
    semiregular_centralizer,
)
from group_oracles import centralizer
from hurwitz_oracles import (
    TUPLE_CAP,
    nodal_target_degree,
    oracle_hurwitz_cover_count,
    oracle_splits,
    oracle_transitive_tuples,
)


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


def _deals_by_combinations(parts, sizes):
    """The deals of `parts` into blocks of these sizes, block by block from
    the combination set of `oracle_splits`."""
    if not sizes:
        return [()]
    return [(sub, *tail) for sub, rest in oracle_splits(parts, sizes[0])
            for tail in _deals_by_combinations(rest, sizes[1:])]


def test_deals_match_the_combination_set():
    for d in range(1, 8):
        for parts in partitions(d):
            for sizes in partitions(d):
                found = _deals(parts, sizes)
                assert len(set(found)) == len(found), (parts, sizes)
                assert sorted(found) == sorted(_deals_by_combinations(parts, sizes)), (parts, sizes)


def test_transitive_tuples_match_the_orbit_of_point_0():
    # 1-8 points of types drawn from every partition, identity included
    rng = random.Random(39)
    nonzero = 0
    for _ in range(600):
        d = rng.randint(1, 7)
        types = tuple(sorted(rng.choice(partitions(d)) for _ in range(rng.randint(1, 8))))
        count = _transitive_tuples(d, types)
        assert count == oracle_transitive_tuples(d, types), (d, types)
        nonzero += count > 0
    assert nonzero > 200


def test_many_points_of_mixed_types_count_in_under_a_second():
    # types with many fixed points, mixed: the orbit-of-point-0 fold took
    # 0.8 s on the 20 points and 3.9 s on the 28, the sum takes milliseconds
    mix = [(2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1), (3, 2, 1, 1), (3, 1, 1, 1, 1)]
    at_bound = tuple(sorted(mix[i % 4] for i in range(20)))
    assert _transitive_tuples(7, at_bound) == oracle_transitive_tuples(7, at_bound)
    start = time.perf_counter()
    # 28 points is above MAX_BRANCH_POINTS, so the count is called directly
    count = _transitive_tuples(7, tuple(sorted(mix[i % 4] for i in range(28))))
    assert time.perf_counter() - start < 1.0
    # the orbit-of-point-0 count of the same tuples
    assert count == 1909373594187879880293506071194783987478523642511360


def _middle_tuples(d, types) -> int:
    return prod(class_size(d, tuple(sorted(t, reverse=True))) for t in types[1:-1])


def _transpositions(d: int) -> list[list[int]]:
    """2d - 2 simple branch points: the genus-0 covers of Hurwitz's formula."""
    return [[2] + [1] * (d - 2)] * (2 * d - 2)


def _golden_hurwitz_entries() -> list[dict]:
    """The golden hurwitz-count entries that exit 0."""
    repo = Path(__file__).resolve().parent.parent
    return [e for e in json.loads((repo / "tests" / "golden" / "corpus.json").read_text())
            if e["argv"][0] == "hurwitz-count" and e["exit"] == 0]


def _golden_and_benchmark_shapes() -> list[tuple[int, list]]:
    """The (degree, types) of every golden hurwitz-count entry that exits 0,
    except those Hurwitz's formula checks, the benchmark's HURWITZ_SHAPES,
    and its d^(d-3) tree counts for d = 5, 6."""
    repo = Path(__file__).resolve().parent.parent
    shapes = [(int(e["argv"][2]), json.loads(e["argv"][4])) for e in _golden_hurwitz_entries()]
    source = (repo / "perfbench" / "workloads.py").read_text()
    [listed] = [ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "HURWITZ_SHAPES"]
    return ([(d, types) for d, types in shapes if types != _transpositions(d)] + listed
            + [(d, [[d]] + [[2] + [1] * (d - 2)] * (d - 1)) for d in (5, 6)])


def test_every_golden_and_benchmark_shape_is_under_the_tuple_cap():
    shapes = _golden_and_benchmark_shapes()
    assert len(shapes) == 12
    assert max(_middle_tuples(d, types) for d, types in shapes) == 15**4 < TUPLE_CAP


def test_too_few_transpositions_give_no_cover():
    # degree 6 with 8 simple branch points: Riemann-Hurwitz genus -1
    for weighted in (False, True):
        assert hurwitz_cover_count(6, [[2, 1, 1, 1, 1]] * 8, weighted=weighted) == 0


def _hurwitz_formula(d: int) -> Fraction:
    """Hurwitz's weighted count of genus-0 covers with simple branching,
    (2d-2)! d^(d-3) / d!."""
    return factorial(2 * d - 2) * Fraction(d) ** (d - 3) / factorial(d)


@pytest.mark.parametrize("d", range(2, 8))
def test_transposition_counts_follow_hurwitzs_formula(d):
    # the degree-2 cover has automorphism group Z/2; larger ones have none
    assert hurwitz_cover_count(d, _transpositions(d), weighted=True) == _hurwitz_formula(d)
    assert hurwitz_cover_count(d, _transpositions(d)) == (1 if d == 2 else _hurwitz_formula(d))


def test_golden_transposition_counts_follow_hurwitzs_formula(capsys):
    entries = [e for e in _golden_hurwitz_entries()
               if json.loads(e["argv"][4]) == _transpositions(int(e["argv"][2]))]
    assert len(entries) == 2
    for entry in entries:
        assert main(entry["argv"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]
        assert Fraction(json.loads(out)["count"]) == _hurwitz_formula(int(entry["argv"][2]))


def _assert_matches_the_enumeration(d, types):
    for weighted in (False, True):
        assert (hurwitz_cover_count(d, types, weighted=weighted)
                == oracle_hurwitz_cover_count(d, types, weighted=weighted)), (d, types, weighted)


def test_every_type_list_of_degree_at_most_5_matches_the_enumeration():
    # every multiset of at most 4 cycle types, in a seeded order: the
    # Burnside count treats the first and last entries apart from the rest
    rng = random.Random(11)
    lists = 0
    for d in range(1, 6):
        for n in range(1, 5):
            for combo in itertools.combinations_with_replacement(partitions(d), n):
                types = [list(t) for t in combo]
                rng.shuffle(types)
                _assert_matches_the_enumeration(d, types)
                lists += 1
    assert lists == 506


def test_sampled_type_lists_of_degree_6_and_7_match_the_enumeration():
    # lists with under 10^4 middle tuples whose Riemann-Hurwitz genus is a
    # whole number >= 0, so that most counts are not zero
    rng = random.Random(7)
    for d, samples in ((6, 10), (7, 6)):
        shapes = partitions(d)[:-1]  # no identity entries
        done = 0
        while done < samples:
            types = [list(rng.choice(shapes)) for _ in range(rng.randint(3, 5))]
            ramification = sum(d - len(t) for t in types)
            if (_middle_tuples(d, types) < 10**4 and ramification % 2 == 0
                    and ramification >= 2 * d - 2):
                _assert_matches_the_enumeration(d, types)
                done += 1


def test_golden_and_benchmark_shapes_match_the_enumeration():
    shapes = {json.dumps(shape) for shape in _golden_and_benchmark_shapes()}
    # the four golden entries are two of HURWITZ_SHAPES, each in both modes
    assert len(shapes) == 8
    for d, types in map(json.loads, sorted(shapes)):
        _assert_matches_the_enumeration(d, types)


@pytest.mark.parametrize("d, types, plain, weighted", [
    (2, [[2], [2]], 1, Fraction(1, 2)),
    (4, [[2, 2]] * 3, 1, Fraction(1, 4)),
    (3, [[3], [3]], 1, Fraction(1, 3)),
])
def test_covers_with_automorphisms(d, types, plain, weighted):
    # one cover each, with automorphism group Z/2, Z/2 x Z/2 and Z/3: the
    # Burnside terms for k >= 2 are what lifts the weighted count to 1
    assert hurwitz_cover_count(d, types) == plain == oracle_hurwitz_cover_count(d, types)
    assert (hurwitz_cover_count(d, types, weighted=True) == weighted
            == oracle_hurwitz_cover_count(d, types, weighted=True))


def test_semiregular_centralizers_are_the_centralizers_in_s_d():
    # built from three generators, they equal the filter of S_d
    for d in range(2, 8):
        for k in range(2, d + 1):
            if d % k == 0:
                c = perm_from_cycles(d, [range(b, b + k) for b in range(0, d, k)])
                expected = centralizer(itertools.permutations(range(d)), [c])
                assert list(semiregular_centralizer(d, k).elements) == expected


def _hook_lengths_dimension(shape) -> int:
    columns = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = prod(part - j + columns[j] - i - 1
                 for i, part in enumerate(shape) for j in range(part))
    return factorial(sum(shape)) // hooks


def _centralizer_order(parts) -> int:
    return prod(i**m * factorial(m) for i, m in Counter(parts).items())


@pytest.mark.parametrize("d", range(1, 9))
def test_characters_satisfy_the_hook_length_formula_and_orthogonality(d):
    shapes = partitions(d)
    assert len(shapes) == [1, 2, 3, 5, 7, 11, 15, 22][d - 1]
    identity = (1,) * d
    dims = [character(shape, identity) for shape in shapes]
    assert dims == [_hook_lengths_dimension(shape) for shape in shapes]
    assert sum(x * x for x in dims) == factorial(d)
    # column orthogonality: the sum over shapes of chi(mu) chi(nu) is z_mu
    # when mu = nu and 0 otherwise
    for mu in shapes:
        for nu in shapes:
            total = sum(character(shape, mu) * character(shape, nu) for shape in shapes)
            assert total == (_centralizer_order(mu) if mu == nu else 0), (mu, nu)
