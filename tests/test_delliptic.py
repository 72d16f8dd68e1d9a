import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial, gcd

import pytest

import covercalc.delliptic as delliptic
from closed_forms import (
    david_identity,
    david_identity_mirror,
    delta00_closed_form,
    delta01_closed_form,
    normalization_branches_list_form,
    row_values,
    segre_chain,
)
from covercalc.cli import main
from covercalc.delliptic import (
    PipelineError,
    am_bn_splits,
    chain_splits,
    degree_ledger,
    delta00_contributions,
    delta01_contributions,
    normalization_branches,
    pairing_series,
    quasimodularity_report,
    segre_excess_contribution,
)
from covercalc.errors import InvariantError
from covercalc.exact import divisors, sigma


def test_normalization_branches():
    # m nodes of index a and n of index b over one target node
    assert normalization_branches([[(2, 2)]]) == 2
    assert normalization_branches([[(2, 3)]]) == 4
    assert normalization_branches([[(4, 1), (6, 1)]]) == 2  # gcd
    assert normalization_branches([[(3, 2), (1, 1)]]) == 3
    assert normalization_branches([[(2, 1)], [(1, 2)]]) == 1
    for a, b, m, n in [(2, 3, 2, 1), (4, 6, 1, 2), (2, 2, 3, 1)]:
        expect = a ** (m - 1) * b ** (n - 1) * gcd(a, b)
        assert normalization_branches([[(a, m), (b, n)]]) == expect


def _listed(nodes):
    """(index, count) target nodes as lists of indices, one per node."""
    return [[e for e, c in node for _ in range(c)] for node in nodes]


def test_normalization_branches_match_the_list_form(monkeypatch):
    seen = []
    real = delliptic.normalization_branches

    def recorded(nodes):
        seen.append(nodes)
        return real(nodes)

    monkeypatch.setattr(delliptic, "normalization_branches", recorded)
    for d in range(2, 21):
        delta00_contributions(d)
        delta01_contributions(d)
    monkeypatch.undo()
    assert len(seen) > 1000
    rng = random.Random(13)
    for _ in range(2000):
        seen.append([[(rng.randint(1, 12), rng.randint(0, 4)) for _ in range(rng.randint(0, 4))]
                     for _ in range(rng.randint(1, 3))])
    assert any(c == 0 for nodes in seen for node in nodes for _, c in node)
    for nodes in seen:
        assert normalization_branches(nodes) == normalization_branches_list_form(_listed(nodes))


def test_normalization_branches_rejects_an_index_below_one():
    with pytest.raises(PipelineError, match="ramification indices must be positive"):
        normalization_branches([[(2, 1), (0, 1)]])


def test_delta01_spot_values():
    assert degree_ledger(2).delta01 == 2
    assert degree_ledger(3).delta01 == 12
    assert degree_ledger(4).delta01 == 136  # 2 (2!)^2 (4 + 9 + 4)


def test_delta01_ledger_row():
    rows = delta01_contributions(2)
    assert len(rows) == 1
    row = row_values(rows[0])
    assert row.params == (1, 1, 1, 1)
    assert row.count == 2 and row.reduced_degree == 1 and row.multiplicity == 1
    assert row.total == 2


def test_delta01_routes_agree_up_to_12():
    for d in range(2, 13):
        assert degree_ledger(d).delta01 == delta01_closed_form(d)


def test_delta00_spot_values():
    assert degree_ledger(2).delta00 == 12
    assert degree_ledger(3).delta00 == 32
    assert degree_ledger(4).delta00 == 336
    assert degree_ledger(5).delta00 == 3456  # 4 (3!)^2 4 sigma(5)


def test_delta00_aggregates_examples():
    assert degree_ledger(2).delta00_aggregates == (12, 8, -8, 0)
    assert degree_ledger(3).delta00_aggregates == (32, 64, -64, 0)
    # the fourth family needs (a+b)k + am + bn >= 4 with k,m,n >= 1
    for d in (2, 3):
        assert degree_ledger(d).delta00_aggregates[3] == 0


def test_delta00_routes_and_cancellation_up_to_12():
    for d in range(2, 13):
        aggregates = degree_ledger(d).delta00_aggregates
        assert sum(aggregates) == delta00_closed_form(d)
        assert sum(aggregates[1:]) == 0


def test_david_identity():
    assert david_identity(2) == 0
    assert david_identity(6) == 0
    for d in range(1, 101):
        assert david_identity(d) == 0
        assert david_identity_mirror(d) == 0


def test_segre_excess_contributions():
    assert segre_excess_contribution(1, 1, "node-profile") == -4
    assert segre_excess_contribution(2, 1, "node-profile") == -8
    for a, b in [(1, 1), (2, 1), (3, 2), (4, 6)]:
        assert segre_excess_contribution(a, b, "node-profile") == -4 * max(a, b)
        assert segre_excess_contribution(a, b, "three-chain") == -2 * (a + b)
        assert segre_excess_contribution(a, b, "three-chain-full-edge") == -2 * b
        assert segre_excess_contribution(a, b, "node-profile") == segre_excess_contribution(
            b, a, "node-profile"
        )
        assert segre_excess_contribution(a, b, "three-chain") == segre_excess_contribution(
            b, a, "three-chain"
        )
    with pytest.raises(PipelineError):
        segre_excess_contribution(0, 1, "node-profile")
    with pytest.raises(PipelineError):
        segre_excess_contribution(1, 1, "bogus")


# The closed form of each excess variant's per-monomial value.
SEGRE_CLOSED_FORMS = {
    "node-profile": lambda a, b: -4 * max(a, b),
    "three-chain": lambda a, b: -2 * (a + b),
    "three-chain-full-edge": lambda a, b: -2 * b,
}


def test_segre_chain_in_integers_matches_the_fraction_form(monkeypatch):
    # the uncached body, once with the package's integer chain and once with
    # the Fraction oracle in its place
    uncached = segre_excess_contribution.__wrapped__
    pairs = list(itertools.product(range(1, 41), repeat=2))
    package = {(a, b, v): uncached(a, b, v) for a, b in pairs for v in SEGRE_CLOSED_FORMS}
    monkeypatch.setattr(delliptic, "_segre_chain", segre_chain)
    for (a, b, variant), value in package.items():
        assert type(value) is Fraction
        assert value == uncached(a, b, variant) == SEGRE_CLOSED_FORMS[variant](a, b)


# The normalized total of each three-chain point row, by subcase.
THREE_CHAIN_CLOSED_FORMS = {
    "a-over-plus": lambda a, b, k, m, n: 4 * m * (n + 1) * (a + b),
    "b-over-plus": lambda a, b, k, m, n: 4 * (m + 1) * n * (a + b),
    "full-node-plus": lambda a, b, k, m, n: 8 * k * (m + 1) * b,
    "full-node-minus": lambda a, b, k, m, n: 8 * (k - 1) * m * b,
}


def test_ledger_totals_assemble():
    three_chain_rows = 0
    for d in range(2, 21):
        mark = factorial(d - 2) ** 2
        for row in map(row_values, delta00_contributions(d) + delta01_contributions(d)):
            if row.excess_value is None:
                assert row.total == row.count * row.reduced_degree * row.multiplicity
            else:
                assert row.total == row.count * row.excess_value
            family, _, subcase = row.subcase.partition("/")
            if family == "three-chain":
                assert row.total == mark * THREE_CHAIN_CLOSED_FORMS[subcase](*row.params)
                three_chain_rows += 1
    assert three_chain_rows > 0


def test_three_chain_rows_are_checked_one_by_one(monkeypatch):
    # only the three-chain points have two target nodes: break their
    # reduced degree alone, and the first such row must raise
    real = delliptic.normalization_branches

    def broken(nodes):
        return real(nodes) * (2 if len(nodes) == 2 else 1)

    monkeypatch.setattr(delliptic, "normalization_branches", broken)
    first_row = r"^three-chain/b-over-plus row \(1, 1, 1, 0, 1\)"
    with pytest.raises(InvariantError, match=first_row):
        delta00_contributions(3)
    for rows in (True, False):
        with pytest.raises(InvariantError, match=first_row):
            degree_ledger(3, rows=rows)


def _doubled_where(name, broken):
    """The module function `name`, its value doubled where broken(*args)."""
    real = getattr(delliptic, name)
    return lambda *args: real(*args) * (2 if broken(*args) else 1)


# Each family's row check, broken alone: the first row of that family in
# printed order must raise.
FAMILY_BREACHES = {
    "profile-family": ("segre_excess_contribution", lambda a, b, v: v == "node-profile",
                       delta00_contributions, r"profile-family row \(1, 1, 1, 5\)"),
    "nodal-profile-edges": ("segre_excess_contribution", lambda a, b, v: v == "three-chain",
                            delta00_contributions,
                            r"nodal-family/profile-edges row \(1, 1, 1, 1, 3\)"),
    "nodal-full-edge": ("segre_excess_contribution",
                        lambda a, b, v: v == "three-chain-full-edge", delta00_contributions,
                        r"nodal-family/full-edge row \(1, 1, 1, 1, 3\)"),
    "polygon-bridge": ("normalization_branches", lambda nodes: len(nodes) == 1,
                       delta00_contributions, r"polygon-bridge row \(1, 6\)"),
    "polygon-pair": ("normalization_branches", lambda nodes: len(nodes) == 1,
                     delta01_contributions, r"polygon-pair row \(1, 1, 1, 5\)"),
}


@pytest.mark.parametrize("family", FAMILY_BREACHES)
def test_each_family_checks_its_rows(monkeypatch, family):
    name, broken, build, first_row = FAMILY_BREACHES[family]
    monkeypatch.setattr(delliptic, name, _doubled_where(name, broken))
    with pytest.raises(InvariantError, match=f"^{first_row}: normalized total"):
        build(6)


# The row-free walk behind each ledger builder.
ROW_FREE_WALKS = {
    delta00_contributions: delliptic._delta00_walk,
    delta01_contributions: delliptic._delta01_walk,
}


@pytest.mark.parametrize("family", FAMILY_BREACHES)
def test_the_row_free_path_checks_every_row(monkeypatch, family):
    # the same breach, walked without building rows, names the same first row
    name, broken, build, first_row = FAMILY_BREACHES[family]
    monkeypatch.setattr(delliptic, name, _doubled_where(name, broken))
    with pytest.raises(InvariantError, match=f"^{first_row}: normalized total"):
        ROW_FREE_WALKS[build](6, None)
    messages = []
    for rows in (True, False):
        with pytest.raises(InvariantError) as caught:
            degree_ledger(6, rows=rows)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    if build is delta00_contributions:  # delta00 is walked first
        assert re.match(first_row, messages[0])


# A breach at one (a, b) pair past the first, or at one chain split past the
# first, at d = 14: the first row it breaks, as each walk names it.
LATER_BREACHES = {
    "nodal-profile-edges": (
        "segre_excess_contribution", lambda a, b, v: (a, b, v) == (2, 1, "three-chain"),
        "nodal-family/profile-edges row (2, 1, 1, 1, 9): normalized total -432 != "
        "closed form -216"),
    "nodal-full-edge": (
        "segre_excess_contribution", lambda a, b, v: (a, b, v) == (1, 2, "three-chain-full-edge"),
        "nodal-family/full-edge row (1, 2, 1, 1, 5): normalized total -64 != closed form -32"),
    "profile-family": (
        "segre_excess_contribution", lambda a, b, v: (a, b, v) == (2, 1, "node-profile"),
        "profile-family row (2, 1, 1, 12): normalized total -384 != closed form -192"),
    "three-chain-points": (
        "normalization_branches",
        lambda nodes: nodes == (((3, 1), (2, 3), (1, 5)), ((3, 0), (2, 4), (1, 6))),
        "three-chain/a-over-plus row (2, 1, 1, 3, 5): normalized total 432 != closed form 216"),
}


@pytest.mark.parametrize("breach", LATER_BREACHES)
def test_a_breach_past_the_first_pair_names_its_first_row(monkeypatch, breach):
    # a check made once per split or per pair still sees a breach at any of
    # them, and names the same row the per-row checks named
    name, broken, message = LATER_BREACHES[breach]
    monkeypatch.setattr(delliptic, name, _doubled_where(name, broken))
    for walk in (lambda: delliptic._delta00_walk(14, None),
                 lambda: delta00_contributions(14),
                 lambda: degree_ledger(14, rows=True),
                 lambda: degree_ledger(14, rows=False)):
        with pytest.raises(InvariantError) as caught:
            walk()
        assert str(caught.value) == message


def _recorded(monkeypatch, name):
    """The argument tuples of each call to the module function `name`."""
    calls = []
    real = getattr(delliptic, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(delliptic, name, recorded)
    return calls


def test_the_row_free_walk_does_each_piece_of_work_once(monkeypatch):
    # one reduced degree per chain split (points), per am+bn=d split
    # (polygon pairs) and per divisor of d (polygon bridges); one excess per
    # (a, b, variant) the walk meets
    branches = _recorded(monkeypatch, "normalization_branches")
    excesses = _recorded(monkeypatch, "segre_excess_contribution")
    for d in range(2, 31):
        branches.clear()
        excesses.clear()
        degree_ledger(d, rows=False)
        chains = list(chain_splits(d))
        profiles = list(am_bn_splits(d))
        shapes = Counter((len(nodes), len(nodes[0])) for (nodes,) in branches)
        assert shapes == Counter({(2, 3): len(chains), (1, 2): len(profiles),
                                  (1, 1): len(divisors(d))}), d
        counts = Counter(excesses)
        assert max(counts.values(), default=1) == 1, d
        nodal = {(a, b) for a, b, k, m, n in chains if m and n}
        assert set(counts) == ({(a, b, "three-chain") for a, b in nodal}
                               | {(a, b, "three-chain-full-edge") for a, b in nodal}
                               | {(a, b, "node-profile") for a, b, m, n in profiles}), d


def test_the_row_free_ledger_equals_the_row_path():
    for d in range(2, 31):
        built, free = degree_ledger(d, rows=True), degree_ledger(d, rows=False)
        assert built.delta00_rows and built.delta01_rows
        assert free.delta00_rows == free.delta01_rows == []
        assert free.delta00 == built.delta00
        assert free.delta01 == built.delta01
        assert free.delta00_aggregates == built.delta00_aggregates


def _pairing_series(d_max: int):
    """The normalized delta00 and delta01 series to order d_max."""
    ledgers = [degree_ledger(d) for d in range(2, d_max + 1)]
    return (pairing_series([x.delta00 for x in ledgers]),
            pairing_series([x.delta01 for x in ledgers]))


def test_normalized_series_values():
    s, _ = _pairing_series(6)
    mark = lambda d: factorial(d - 2) ** 2
    for d in (2, 3, 4):
        assert s.coeffs[d] == degree_ledger(d).delta00 / mark(d)
        assert s.coeffs[d] == 4 * (d - 1) * sigma(d)
    assert s.coeffs[0] == 0 and s.coeffs[1] == 0


def test_quasimodularity_report():
    rep = quasimodularity_report(*_pairing_series(40))
    assert rep.delta00.is_member and rep.delta01.is_member
    assert rep.split_stable
    assert dict(rep.delta01.coefficients) == {
        "1": Fraction(1, 288),
        "E2": Fraction(-1, 144),
        "E2^2": Fraction(1, 288),
    }
    assert dict(rep.delta00.coefficients) == {
        "1": Fraction(-1, 6),
        "E2": Fraction(1, 6),
        "E4": Fraction(1, 72),
        "E2^2": Fraction(-1, 72),
    }


def test_am_bn_splits_match_brute_force():
    for d in range(1, 26):
        brute = [
            (a, b, m, n)
            for a, m, b, n in itertools.product(range(1, d + 1), repeat=4)
            if a * m + b * n == d
        ]
        assert list(am_bn_splits(d)) == brute


def test_chain_splits_match_brute_force():
    for d in range(1, 26):
        brute = [
            (a, b, k, m, n)
            for a, b, k in itertools.product(range(1, d + 1), repeat=3)
            if (a + b) * k <= d
            for m, n in itertools.product(range(d + 1), repeat=2)
            if (a + b) * k + a * m + b * n == d
        ]
        assert list(chain_splits(d)) == brute


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(delliptic, name)

    def counted(d, *rest):
        calls.append(d)
        return real(d, *rest)

    monkeypatch.setattr(delliptic, name, counted)
    return calls


def test_each_delta00_walk_enumerates_the_chain_splits_once(monkeypatch):
    # both three-chain families come from one walk of chain_splits(d)
    calls = _count_calls(monkeypatch, "chain_splits")
    for rows in (True, False):
        degree_ledger(12, rows=rows)
    assert calls == [12, 12]


@pytest.mark.parametrize(
    "flags",
    [list(c) for r in range(5) for c in itertools.combinations(
        ["--ledger", "--series", "--qmod", "--human"], r)],
)
def test_cli_builds_each_ledger_once_per_degree(monkeypatch, capsys, flags):
    # each ledger is walked once per degree; its rows are built (in that
    # same walk) only when --ledger asks for them and --human does not hide
    # them behind the values table
    walks00 = _count_calls(monkeypatch, "_delta00_walk")
    walks01 = _count_calls(monkeypatch, "_delta01_walk")
    built00 = _count_calls(monkeypatch, "delta00_contributions")
    built01 = _count_calls(monkeypatch, "delta01_contributions")
    code = main(["delliptic", "--dmax", "10", *flags])
    capsys.readouterr()
    assert code == (2 if "--qmod" in flags else 0)  # --qmod needs dmax >= 37
    assert walks00 == walks01 == list(range(2, 11))
    printed = "--ledger" in flags and "--human" not in flags
    assert built00 == built01 == (list(range(2, 11)) if printed else [])
