"""The genus-2 d-elliptic zero-cycle computation, stratum by stratum.

Both boundary pairings of the d-elliptic class are assembled from explicit
stratum ledgers: automorphism-weighted cover counts, reduced degrees of the
normalization (branch counts of the local rings), intersection
multiplicities, and excess (Segre/Chern) contributions for the
one-dimensional families.  Each aggregate has an independent closed form
against which the stratum route is checked exactly.

Every ledger family walks one of two split enumerations: `am_bn_splits`
(the profile loop am + bn = d) or `chain_splits` ((a+b)k + am + bn = d),
which the delta00 walk runs once for both three-chain families.  A
pipeline over d = 2..d_max makes one checked pass: `degree_ledger(d)`
walks each of the two ledgers once, checks every row against its closed
form, the delta00 and delta01 stratum sums against theirs, and the
cancellation of the last three delta00 family aggregates.  Values,
aggregates, ledger rows and the normalized series (`pairing_series`) all
derive from that pass, and `quasimodularity_report` takes the two series
it produced.  Only `degree_ledger(d, rows=True)`, which `delliptic
--ledger` asks for, builds row objects (`delta00_contributions`,
`delta01_contributions`); `rows=False` runs the same walks and the same
row checks in the same order, and keeps only each family's sum.

Every row total is the marked-point factor (d-2)!^2, from labeling the
unramified points, times an integer closed form: 2mb (polygon pairs),
4m(am-1) (polygon bridges), 4m(n+1)(a+b), 4(m+1)n(a+b), 8k(m+1)b and
8(k-1)m b (the four three-chain point subcases), -8max(a,b)mn (profile
family), -8(a+b)mn and -16bkm (nodal family).  So a row holds integers
with the mark taken out: the numerator and denominator of its count,
its reduced degree, multiplicity and excess, and its normalized total.
The row check is an integer cross-multiplication, and the family sums,
both closed-form checks and the cancellation run on normalized integers.
The mark is put back only at output: once per degree for the pairing
values and aggregates (`degree_ledger`), and in a row's printed values
(`--ledger`), which the CLI formats straight from the row's integers.
"Normalized" values are the ones with the mark divided out.

A split's rows share its values, computed once per split: its powers of
a, b and a+b give the automorphism factor ((a+b)^(k-1) a^m b^n, squared)
or the chain monomial (a^(m-1) b^(n-1), times (a+b)^(k-1) on a three-chain
family); one `normalization_branches` call on the split's (index, count)
target nodes gives the reduced degree; and the lcm of the distinct
indices on each target node gives the multiplicity numerator (the
excess families, whose check reads neither, compute both only for a built
row).  Rows that share a predicate evaluate it once, and it is each row's
own check with common nonzero factors cancelled, so every row is still
checked.  A three-chain point row checks choices * reduced * lcms ==
aut * mult_den * choices * factor; as choices > 0 and factor * mult_den =
(a+b)ab in all four subcases, that is reduced * lcms == (a+b)ab * aut, one
predicate per chain split.  An excess-family row checks count * excess ==
closed form, the chain monomial on both sides; with it and m*n (or k*m)
cancelled that reads excess == -4max(a,b) (profile family), -2(a+b) or
-2b (the two nodal rows), a predicate on (a, b) alone, evaluated at the
pair's first row in walk order.  A breach raises the check of the first
row that fails it, with that row's own values, so each family checks its
rows in printed order and a breach names its first failing row, on
either path.  The chain walk checks a split's point rows, then its
nodal-family rows: the nodal family, printed last, is checked before the
profile family.

The CLI walks degrees up to MAX_DMAX = 200 and refuses a larger --dmax
before it walks any: the chain splits number about 3.1 million up to
d = 200, and `delliptic --dmax 200 --series --qmod` takes about 17 s on a
2-core Xeon (Python 3.11).  With --ledger it walks up to MAX_LEDGER_DMAX =
60: it holds every degree's rows until it prints, and its peak RSS grows
about as dmax^4, 42 / 114 / 177 MB at --dmax 40 / 60 / 70 (6 s at 60).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, gcd, lcm
from typing import NamedTuple

from covercalc.errors import InvariantError, PipelineError
from covercalc.exact import QSeries, divisors, sigma
from covercalc.qmod import MembershipReport, is_quasimodular


# The largest --dmax the CLI walks, and the largest for which it builds
# ledger rows.
MAX_DMAX = 200
MAX_LEDGER_DMAX = 60


def normalization_branches(nodes: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Branches of the local ring with one power relation per target node.

    Each target node is given as (ramification index e, count c) pairs: c
    nodes of index e over it.  For nodes of indices e_1..e_r over one target
    node the local equation t_1^{e_1} = ... = t_r^{e_r} normalizes into
    prod(e_i)/lcm(e_i) branches, that is prod(e^c) / lcm(e with c > 0);
    independent target nodes multiply.
    """
    total = 1
    for node in nodes:
        size = common = 1
        for e, c in node:
            if e < 1:
                raise PipelineError("ramification indices must be positive")
            if c:
                size *= e ** c
                common = lcm(common, e)
        total *= size // common
    return total


class StratumContribution(NamedTuple):
    """One ledger row, held as integers with the mark factor taken out.

    Its printed values (`delliptic --ledger`, formatted from these integers
    by the CLI's row template) put the mark back: count = mark * count_num /
    count_den, reduced_degree = reduced, multiplicity = mult_num / mult_den,
    excess_value = excess_num / excess_den (None for isolated points) and
    total = mark * normalized_total, the row's closed form; each ratio is
    printed in lowest terms, next to the row's stratum, subcase and params.
    """

    stratum: str
    subcase: str
    params: tuple[int, ...]
    mark: int
    count_num: int
    count_den: int
    reduced: int
    mult_num: int
    mult_den: int
    excess_num: int | None
    excess_den: int
    normalized_total: int


# The delta00 family each row's subcase sums into: polygon-bridge,
# three-chain points, profile family, nodal family.
_FAMILY_OF = {
    "polygon-bridge": 0,
    "three-chain/a-over-plus": 1, "three-chain/b-over-plus": 1,
    "three-chain/full-node-plus": 1, "three-chain/full-node-minus": 1,
    "profile-family": 2,
    "nodal-family/profile-edges": 3, "nodal-family/full-edge": 3,
}


def _mark_factor(d: int) -> int:
    return factorial(d - 2) ** 2


def _check_row(num: int, den: int, closed: int, subcase: str, params: tuple) -> None:
    """Raise unless a row's normalized total num/den equals its closed form."""
    if num != closed * den:
        raise InvariantError(
            f"{subcase} row {params}: normalized total {Fraction(num, den)} "
            f"!= closed form {closed}"
        )


# A row from its twelve fields, without NamedTuple's Python-level __new__.
_new_row = partial(tuple.__new__, StratumContribution)


def am_bn_splits(d: int) -> Iterator[tuple[int, int, int, int]]:
    """(a, b, m, n), all positive, with am + bn = d; a, then m, then b ascending."""
    for a in range(1, d):
        for m in range(1, (d - 1) // a + 1):
            rest = d - a * m
            for b in divisors(rest):
                yield a, b, m, rest // b


def chain_splits(d: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(a, b, k, m, n) with (a+b)k + am + bn = d, a, b, k >= 1 and m, n >= 0;
    a, then b, k, m ascending."""
    for a in range(1, d):
        for b in range(1, d - a + 1):
            for k in range(1, d // (a + b) + 1):
                for m in range(0, (d - (a + b) * k) // a + 1):
                    rest = d - (a + b) * k - a * m
                    if rest % b == 0:
                        yield a, b, k, m, rest // b


def _segre_chain(
    node_rams: tuple[int, int], cover_ram: int, target_degree: int, branch_factor: int
) -> Fraction:
    """psi-coefficient chain for a one-dimensional excess family.

    The family's normal data: Chern factors (1 - (L/e) psi) per chosen node
    of ramification e, Segre factor (M + M^2 psi) with thickening
    M = L / max(node rams), and the psi integral (2/L) * target_degree *
    branch_factor.  Returns the per-component contribution divided by the
    chain's ramification monomial (the caller multiplies it back in).
    """
    e1, e2 = node_rams
    L = cover_ram
    top = max(e1, e2)
    # the psi^1 coefficient of (1 - (L/e1) psi)(1 - (L/e2) psi)(M + M^2 psi)
    # is M^2 - (L/e1 + L/e2) M = L^2 (e1 e2 - (e1 + e2) top) / (e1 e2 top^2);
    # times the psi integral, over one common denominator
    num = 2 * L * target_degree * branch_factor * (e1 * e2 - (e1 + e2) * top)
    return Fraction(num, e1 * e2 * top * top)


@lru_cache(maxsize=None)
def segre_excess_contribution(a: int, b: int, variant: str) -> Fraction:
    """Per-component excess value, per unit of the chain monomial.

    variant "node-profile" is the family over the separating-target stratum
    (profile (a,b) over both node branches): the chain evaluates to
    -4 max(a,b).  variant "three-chain" is the family with chains of
    ramification a+b, a, b over an irreducible nodal target, with the chosen
    nodes of ramification a and b: -2(a+b).  variant "three-chain-full-edge"
    is that family with the chosen nodes of ramification a+b and a: -2b.
    """
    if a < 1 or b < 1:
        raise PipelineError("ramification indices must be positive")
    if variant == "node-profile":
        return _segre_chain((a, b), lcm(a, b), 2 * max(a, b), gcd(a, b))
    if variant == "three-chain":
        return _segre_chain((a, b), lcm(a, b, a + b), 1, gcd(a, b) ** 2)
    if variant == "three-chain-full-edge":
        return _segre_chain((a + b, a), lcm(a, b, a + b), 1, gcd(a, b) ** 2)
    raise PipelineError(f"unknown excess variant {variant!r}")


# ---------------------------------------------------------------------------
# the separating-node pairing


def _delta01_walk(d: int, rows: list[StratumContribution] | None) -> int:
    """Polygon-pair covers: the normalized delta01 stratum sum."""
    if d < 2:
        raise PipelineError("the pairing needs degree at least 2")
    mark = _mark_factor(d)
    total = 0
    for params in am_bn_splits(d):
        a, b, m, n = params
        count_num = 2 * m
        count_den = a ** (m - 1) * b ** (n - 1)
        reduced = normalization_branches((((a, m), (b, n)),))
        mult_num = lcm(a, b)
        closed = 2 * m * b
        # isolated point: count * reduced * multiplicity
        _check_row(count_num * reduced * mult_num, count_den * a, closed, "polygon-pair",
                   params)
        total += closed
        if rows is not None:
            rows.append(_new_row(("delta01", "polygon-pair", params, mark, count_num,
                                  count_den, reduced, mult_num, a, None, 1, closed)))
    return total


def delta01_contributions(d: int) -> list[StratumContribution]:
    """Ledger for the separating-node pairing: polygon-pair covers."""
    rows: list[StratumContribution] = []
    _delta01_walk(d, rows)
    return rows


def _checked(d: int, stratum_sum: int, closed: int) -> int:
    """The normalized stratum sum, once it equals the normalized closed form."""
    if stratum_sum != closed:
        raise InvariantError(
            f"d={d}: normalized stratum route {stratum_sum} disagrees with closed form {closed}"
        )
    return stratum_sum


# ---------------------------------------------------------------------------
# the irreducible-node pairing: four stratum families


def _delta00_type1(d: int, rows: list[StratumContribution] | None) -> int:
    """Single polygon over a one-nodal target component; reduced points."""
    mark = _mark_factor(d)
    total = 0
    for a in divisors(d):
        m = d // a
        params = (a, m)
        # 4 m (m-1) a^(2-m) + 4 (a-1) m a^(1-m), over the common a^(m-1)
        count_num = 4 * m * (m - 1) * a + 4 * (a - 1) * m
        count_den = a ** (m - 1)
        reduced = normalization_branches((((a, m),),))
        closed = 4 * m * (a * m - 1)
        _check_row(count_num * reduced, count_den, closed, "polygon-bridge", params)
        total += closed
        if rows is not None:
            rows.append(_new_row(("delta00", "polygon-bridge", params, mark, count_num,
                                  count_den, reduced, 1, 1, None, 1, closed)))
    return total


def _point_rows(a: int, b: int, k: int, m: int, n: int) -> list[tuple[str, int, int, int]]:
    """(subcase, choices, mult_den, closed form) of a chain split's point rows
    with choices > 0, in printed order.

    The multiplicity is (l_+/e_+)(l_-/e_-): each target node's own common
    ramification over the index of the node chosen to smooth on that side.
    Each closed form is choices * factor, and factor * mult_den = (a+b)ab in
    every subcase."""
    s = a + b
    return [(subcase, choices, mult_den, choices * factor)
            for subcase, choices, mult_den, factor in (
                ("three-chain/a-over-plus", 4 * m * (n + 1), a * b, s),
                ("three-chain/b-over-plus", 4 * (m + 1) * n, a * b, s),
                ("three-chain/full-node-plus", 8 * k * (m + 1), s * a, b),
                ("three-chain/full-node-minus", 8 * (k - 1) * m, s * a, b),
            ) if choices]


def _nodal_rows(
    a: int, b: int, k: int, m: int, n: int
) -> tuple[tuple[str, int, int, str, int], ...]:
    """(subcase, count_num, mult_den, excess variant, closed form) of a chain
    split's two nodal-family rows (m, n >= 1), in printed order."""
    s = a + b
    return (
        ("nodal-family/profile-edges", 4 * m * n, max(a, b), "three-chain", -8 * s * m * n),
        ("nodal-family/full-edge", 8 * k * m, s, "three-chain-full-edge", -16 * b * k * m),
    )


def _delta00_chains(
    d: int, rows: list[StratumContribution] | None, nodal: list[StratumContribution] | None
) -> tuple[int, int]:
    """Both three-chain families in one walk of the chain splits: a split's
    isolated points over a two-nodal target (rows to `rows`), then, if m, n >= 1,
    its family over the irreducible-nodal target (rows to `nodal`); their sums."""
    mark = _mark_factor(d)
    points = family = 0
    pair = None
    for params in chain_splits(d):
        a, b, k, m, n = params
        if (a, b) != pair:
            # the splits of one pair (a, b) come in one run: its constants,
            # the lcm of the indices present on each target node by which of
            # m, n (plus node) or k - 1 (minus node) are positive, and its
            # nodal excess once its first nodal row has checked it
            pair = a, b
            s = a + b
            sab = s * a * b
            common = lcm(a, b, s)
            plus_lcm = ((s, lcm(s, b)), (lcm(s, a), common))
            minus_lcm = (lcm(a, b), common)
            excess = None
        # the plus node carries k, m, n nodes of index a+b, a, b; the minus
        # node k-1, m+1, n+1
        root = s ** (k - 1) * a ** m * b ** n
        aut = root * root
        reduced = normalization_branches(
            (((s, k), (a, m), (b, n)), ((s, k - 1), (a, m + 1), (b, n + 1)))
        )
        lcms = plus_lcm[m > 0][n > 0] * minus_lcm[k > 1]
        point = reduced * lcms
        # each point row checks choices * point == aut * mult_den * choices *
        # factor; with choices > 0 and factor * mult_den = (a+b)ab that is
        # one predicate for the split, and a breach names its first row
        if point != sab * aut:
            for subcase, choices, mult_den, closed in _point_rows(*params):
                _check_row(choices * point, aut * mult_den, closed, subcase, params)
        # the closed forms of the split's point rows (an absent row's is 0)
        points += 4 * s * (2 * m * n + m + n) + 8 * b * (2 * k * m + k - m)
        if rows is not None:
            for subcase, choices, mult_den, closed in _point_rows(*params):
                rows.append(_new_row(("delta00", subcase, params, mark, choices, aut,
                                      reduced, lcms, mult_den, None, 1, closed)))
        if m == 0 or n == 0:
            continue
        family -= 8 * m * (s * n + 2 * b * k)
        monomial = root // (a * b)
        if excess is None:
            # a nodal row checks count * excess_num == closed * excess_den
            # with the monomial in both; with it and m*n (k*m) cancelled
            # that reads excess == -2(a+b) (-2b), a predicate on (a, b)
            # alone, so the pair's first nodal row checks all of the pair's
            excess = []
            for subcase, count_num, _, variant, closed in _nodal_rows(*params):
                excess_num, excess_den = segre_excess_contribution(
                    a, b, variant).as_integer_ratio()
                _check_row(count_num * excess_num * monomial, monomial * excess_den, closed,
                           subcase, params)
                excess.append((excess_num, excess_den))
        if nodal is not None:
            reduced = normalization_branches((((s, k), (a, m), (b, n)),))
            for (subcase, count_num, mult_den, _, closed), (excess_num, excess_den) in zip(
                _nodal_rows(*params), excess
            ):
                nodal.append(_new_row(("delta00", subcase, params, mark, count_num, monomial,
                                       reduced, common, mult_den, excess_num * monomial,
                                       excess_den, closed)))
    return points, family


def _delta00_type3(d: int, rows: list[StratumContribution] | None) -> int:
    """One-dimensional family over the separating-target stratum: excess."""
    mark = _mark_factor(d)
    total = 0
    excess = {}  # (a, b): its per-monomial excess, once the pair's first row checked it
    for params in am_bn_splits(d):
        a, b, m, n = params
        top = max(a, b)
        closed = -8 * top * m * n
        total += closed
        checked = (a, b) in excess
        if checked and rows is None:
            continue
        monomial = a ** (m - 1) * b ** (n - 1)
        count_num = 2 * m * n
        if not checked:
            # family: count * excess, the family's per-monomial excess times
            # the chain monomial.  With the monomial and m*n cancelled the
            # check reads excess == -4max(a, b), a predicate on (a, b) alone,
            # so the pair's first row (in walk order) checks all of the pair's
            excess_num, excess_den = excess[a, b] = segre_excess_contribution(
                a, b, "node-profile").as_integer_ratio()
            _check_row(count_num * excess_num * monomial, monomial * excess_den, closed,
                       "profile-family", params)
        if rows is not None:
            excess_num, excess_den = excess[a, b]
            reduced = normalization_branches((((a, m), (b, n)),))
            rows.append(_new_row(("delta00", "profile-family", params, mark, count_num,
                                  monomial, reduced, lcm(a, b), top, excess_num * monomial,
                                  excess_den, closed)))
    return total


def _delta00_walk(d: int, rows: list[StratumContribution] | None) -> tuple[int, ...]:
    """The four delta00 families, appended to `rows` in printed order, with
    one walk of the chain splits for the second and fourth: their normalized
    sums (polygon-bridge, three-chain points, profile family, nodal family)."""
    if d < 2:
        raise PipelineError("the pairing needs degree at least 2")
    nodal = None if rows is None else []
    bridges = _delta00_type1(d, rows)
    points, family = _delta00_chains(d, rows, nodal)
    profiles = _delta00_type3(d, rows)
    if rows is not None:
        rows.extend(nodal)
    return bridges, points, profiles, family


def delta00_contributions(d: int) -> list[StratumContribution]:
    """Ledger for the irreducible-node pairing, in printed order."""
    rows: list[StratumContribution] = []
    _delta00_walk(d, rows)
    return rows


def _family_sums(rows: list[StratumContribution]) -> tuple[int, ...]:
    """The normalized family subtotals of a delta00 ledger."""
    sums = [0, 0, 0, 0]
    for row in rows:
        sums[_FAMILY_OF[row.subcase]] += row.normalized_total
    return tuple(sums)


# ---------------------------------------------------------------------------
# series assembly and the quasimodularity report


class DegreeLedger(NamedTuple):
    """Both pairings at one degree, from one checked walk of each ledger.

    delta00_aggregates are the four family subtotals, in the fixed order:
    polygon-bridge, three-chain points, profile family, nodal family.  The
    row lists are empty unless the rows were asked for."""

    delta00_rows: list[StratumContribution]
    delta01_rows: list[StratumContribution]
    delta00_aggregates: tuple[Fraction, ...]
    delta00: Fraction
    delta01: Fraction


def degree_ledger(d: int, rows: bool = True) -> DegreeLedger:
    """Both pairings of degree d, with every row of both ledgers checked,
    then both closed forms and the aggregate cancellation.

    With rows=True the two ledgers are built once each
    (`delta00_contributions`, `delta01_contributions`) and the aggregates
    are their family sums.  With rows=False the same walks check every row
    in the same order but build none: the aggregates and the delta01 sum
    come straight from the walks, and both row lists are empty."""
    if rows:
        rows00 = delta00_contributions(d)
        rows01 = delta01_contributions(d)
        aggregates = _family_sums(rows00)
        sum01 = sum(c.normalized_total for c in rows01)
    else:
        rows00, rows01 = [], []
        aggregates = _delta00_walk(d, None)
        sum01 = _delta01_walk(d, None)
    total00 = _checked(d, sum(aggregates), 4 * (d - 1) * sigma(d))
    if sum(aggregates[1:]) != 0:
        raise InvariantError(f"d={d}: correction aggregates fail to cancel")
    total01 = _checked(d, sum01, 2 * sum(sigma(d1) * sigma(d - d1) for d1 in range(1, d)))
    mark = _mark_factor(d)
    return DegreeLedger(
        rows00,
        rows01,
        tuple(Fraction(mark * x) for x in aggregates),
        Fraction(mark * total00),
        Fraction(mark * total01),
    )


def pairing_series(numbers: Sequence[Fraction]) -> QSeries:
    """Sum over d >= 2 of numbers[d-2]/(d-2)!^2 q^d: the normalized series of
    a pairing from its values at d = 2, 3, ..."""
    coeffs = [Fraction(0), Fraction(0)]
    coeffs.extend(x / _mark_factor(d) for d, x in enumerate(numbers, start=2))
    return QSeries(tuple(coeffs))


# the report's fit: the weight <= 4 quasimodular span, solved on the first
# 20 coefficients and checked exactly on the next 18
QMOD_WEIGHT_BOUND = 4
QMOD_FIT_LEN = 20
QMOD_HOLDOUT_LEN = 18


class QuasimodularityReport(NamedTuple):
    d_max: int
    weight_bound: int
    delta00: MembershipReport
    delta01: MembershipReport
    split_stable: bool

    def to_json(self) -> dict:
        return {
            "d_max": self.d_max,
            "weight_bound": self.weight_bound,
            "delta00": self.delta00.to_json(),
            "delta01": self.delta01.to_json(),
            "split_stable": self.split_stable,
        }


def quasimodularity_report(s00: QSeries, s01: QSeries) -> QuasimodularityReport:
    """Membership of the two normalized pairing series (delta00, delta01; both
    to order d_max), with split stability."""
    d_max = s00.order
    if d_max < QMOD_FIT_LEN + QMOD_HOLDOUT_LEN - 1:
        raise PipelineError(
            f"d_max={d_max} too small for fit {QMOD_FIT_LEN} + holdout {QMOD_HOLDOUT_LEN}"
        )
    rep00 = is_quasimodular(s00, QMOD_WEIGHT_BOUND, QMOD_FIT_LEN, QMOD_HOLDOUT_LEN)
    rep01 = is_quasimodular(s01, QMOD_WEIGHT_BOUND, QMOD_FIT_LEN, QMOD_HOLDOUT_LEN)
    stable = True
    for shift in (-5, 5):
        for series, base in ((s00, rep00), (s01, rep01)):
            moved = is_quasimodular(
                series, QMOD_WEIGHT_BOUND, QMOD_FIT_LEN + shift, QMOD_HOLDOUT_LEN - shift
            )
            if moved.is_member != base.is_member:
                stable = False
    return QuasimodularityReport(d_max, QMOD_WEIGHT_BOUND, rep00, rep01, stable)
