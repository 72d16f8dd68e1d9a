"""The genus-2 d-elliptic zero-cycle computation, stratum by stratum.

Both boundary pairings of the d-elliptic class are assembled from explicit
stratum ledgers: automorphism-weighted cover counts, reduced degrees of the
normalization (branch counts of the local rings), intersection
multiplicities, and excess (Segre/Chern) contributions for the
one-dimensional families.  Each aggregate has an independent closed form
against which the stratum route is checked exactly.

Every ledger walks one of two split enumerations: `am_bn_splits` (the
profile loop am + bn = d) or `chain_splits` ((a+b)k + am + bn = d).  A
pipeline over d = 2..d_max makes one checked pass: `degree_ledger(d)`
builds each of the two ledgers once, checks every row against its closed
form, the delta00 and delta01 stratum sums against theirs, and the
cancellation of the last three delta00 family aggregates.  Values,
aggregates, ledger rows and the normalized series (`pairing_series`) all
derive from that pass, and `quasimodularity_report` takes the two series
it produced.

The marked-point factor (d-2)!^2 from labeling the unramified points is
kept explicit everywhere; "normalized" values divide it out.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

from covercalc.errors import InvariantError
from covercalc.exact import QSeries, divisors, rat_to_str, sigma1
from covercalc.qmod import MembershipReport, is_quasimodular


class PipelineError(ValueError):
    pass


def normalization_branches(node_indices: list[list[int]]) -> int:
    """Branches of the local ring with one power relation per target node.

    For nodes of ramification indices e_1..e_r over one target node the
    local equation t_1^{e_1} = ... = t_r^{e_r} normalizes into
    prod(e_i)/lcm(e_i) branches; independent target nodes multiply.
    """
    total = 1
    for indices in node_indices:
        if not indices:
            continue
        prod = 1
        for e in indices:
            if e < 1:
                raise PipelineError("ramification indices must be positive")
            prod *= e
        total *= prod // lcm(*indices)
    return total


@dataclass(frozen=True)
class StratumContribution:
    stratum: str
    subcase: str
    params: tuple[int, ...]
    count: Fraction
    reduced_degree: Fraction
    multiplicity: Fraction
    excess_value: Fraction | None
    total: Fraction

    def to_json(self) -> dict:
        return {
            "stratum": self.stratum,
            "subcase": self.subcase,
            "params": list(self.params),
            "count": rat_to_str(self.count),
            "reduced_degree": rat_to_str(self.reduced_degree),
            "multiplicity": rat_to_str(self.multiplicity),
            "excess_value": None if self.excess_value is None else rat_to_str(self.excess_value),
            "total": rat_to_str(self.total),
        }


def _mark_factor(d: int) -> int:
    return factorial(d - 2) ** 2


def _checked_row(total: Fraction, closed: int, subcase: str, params: tuple) -> Fraction:
    """A row's total, once it is seen to equal the row's closed form."""
    if total != closed:
        raise InvariantError(f"{subcase} row {params}: total {total} != closed form {closed}")
    return total


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
    m_thick = Fraction(L, max(e1, e2))
    # psi^1 coefficient of (1 - (L/e1) psi)(1 - (L/e2) psi)(M + M^2 psi)
    psi1 = m_thick * m_thick - (Fraction(L, e1) + Fraction(L, e2)) * m_thick
    integral_psi = Fraction(2, L) * target_degree * branch_factor
    return psi1 * integral_psi


def segre_excess_contribution(a: int, b: int, variant: str) -> Fraction:
    """Per-component excess value, per unit of the chain monomial.

    variant "node-profile" is the family over the separating-target stratum
    (profile (a,b) over both node branches): the chain evaluates to
    -4 max(a,b).  variant "three-chain" is the family with chains of
    ramification a+b, a, b over an irreducible nodal target: -2(a+b).
    """
    if a < 1 or b < 1:
        raise PipelineError("ramification indices must be positive")
    if variant == "node-profile":
        L = lcm(a, b)
        return _segre_chain((a, b), L, 2 * max(a, b), gcd(a, b))
    if variant == "three-chain":
        L = lcm(a, b, a + b)
        return _segre_chain((a, b), L, 1, gcd(a, b) ** 2)
    raise PipelineError(f"unknown excess variant {variant!r}")


def _segre_chain_secondary(a: int, b: int) -> Fraction:
    """three-chain family with the chosen nodes of ramification a+b and a."""
    L = lcm(a, b, a + b)
    return _segre_chain((a + b, a), L, 1, gcd(a, b) ** 2)


# ---------------------------------------------------------------------------
# the separating-node pairing


def delta01_contributions(d: int) -> list[StratumContribution]:
    """Ledger for the separating-node pairing: polygon-pair covers."""
    if d < 2:
        raise PipelineError("the pairing needs degree at least 2")
    mark = _mark_factor(d)
    out = []
    for params in am_bn_splits(d):
        a, b, m, n = params
        count = Fraction(2 * m * mark, a ** (m - 1) * b ** (n - 1))
        reduced = Fraction(normalization_branches([[a] * m + [b] * n]))
        multiplicity = Fraction(lcm(a, b), a)
        total = _checked_row(
            count * reduced * multiplicity, 2 * mark * m * b, "polygon-pair", params
        )
        out.append(
            StratumContribution(
                "delta01", "polygon-pair", params, count, reduced, multiplicity, None, total
            )
        )
    return out


def delta01_closed_form(d: int) -> Fraction:
    return Fraction(
        2
        * _mark_factor(d)
        * sum(sigma1(d1) * sigma1(d - d1) for d1 in range(1, d))
    )


def delta01_number(d: int) -> Fraction:
    """The separating-node pairing, via strata, checked against the closed form."""
    return _checked_delta01(d, delta01_contributions(d))


def _checked_delta01(d: int, rows: list[StratumContribution]) -> Fraction:
    stratum_sum = sum((c.total for c in rows), Fraction(0))
    closed = delta01_closed_form(d)
    if stratum_sum != closed:
        raise PipelineError(
            f"d={d}: stratum route {stratum_sum} disagrees with closed form {closed}"
        )
    return stratum_sum


# ---------------------------------------------------------------------------
# the irreducible-node pairing: four stratum families


def _delta00_type1(d: int) -> list[StratumContribution]:
    """Single polygon over a one-nodal target component; reduced points."""
    mark = _mark_factor(d)
    out = []
    for a in divisors(d):
        m = d // a
        count = 4 * mark * m * (m - 1) * Fraction(a) ** (2 - m) + 4 * mark * (
            a - 1
        ) * m * Fraction(a) ** (1 - m)
        reduced = Fraction(normalization_branches([[a] * m]))
        total = _checked_row(count * reduced, 4 * mark * m * (a * m - 1), "polygon-bridge", (a, m))
        out.append(
            StratumContribution(
                "delta00", "polygon-bridge", (a, m), count, reduced, Fraction(1), None, total
            )
        )
    return out


def _delta00_type2(d: int) -> list[StratumContribution]:
    """Three chains over a two-nodal target: isolated intersection points."""
    mark = _mark_factor(d)
    out = []
    for params in chain_splits(d):
        a, b, k, m, n = params
        aut = Fraction((a + b) ** (2 * k - 2) * a ** (2 * m) * b ** (2 * n))
        plus_nodes = [a + b] * k + [a] * m + [b] * n
        minus_nodes = [a + b] * (k - 1) + [a] * (m + 1) + [b] * (n + 1)
        reduced = Fraction(normalization_branches([plus_nodes, minus_nodes]))
        l_plus = lcm(*plus_nodes)
        l_minus = lcm(*minus_nodes)
        # multiplicity factors use each target node's own common
        # ramification; one chosen node smooths on each side
        for subcase, choices, mult in (
            ("a-over-plus", 4 * m * (n + 1), Fraction(l_plus, a) * Fraction(l_minus, b)),
            ("b-over-plus", 4 * (m + 1) * n, Fraction(l_plus, b) * Fraction(l_minus, a)),
            (
                "full-node-plus",
                8 * k * (m + 1),
                Fraction(l_plus, a + b) * Fraction(l_minus, a),
            ),
            (
                "full-node-minus",
                8 * (k - 1) * m,
                Fraction(l_minus, a + b) * Fraction(l_plus, a),
            ),
        ):
            if choices == 0:
                continue
            count = Fraction(choices * mark) / aut
            out.append(
                StratumContribution(
                    "delta00",
                    f"three-chain/{subcase}",
                    params,
                    count,
                    reduced,
                    mult,
                    None,
                    count * reduced * mult,
                )
            )
    return out


def _delta00_type3(d: int) -> list[StratumContribution]:
    """One-dimensional family over the separating-target stratum: excess."""
    mark = _mark_factor(d)
    out = []
    for params in am_bn_splits(d):
        a, b, m, n = params
        monomial = a ** (m - 1) * b ** (n - 1)
        count = Fraction(2 * m * n * mark, monomial)
        reduced = Fraction(normalization_branches([[a] * m + [b] * n]))
        excess = segre_excess_contribution(a, b, "node-profile") * monomial
        total = _checked_row(
            count * excess, -8 * mark * max(a, b) * m * n, "profile-family", params
        )
        out.append(
            StratumContribution(
                "delta00",
                "profile-family",
                params,
                count,
                reduced,
                Fraction(lcm(a, b), max(a, b)),
                excess,
                total,
            )
        )
    return out


def _delta00_type4(d: int) -> list[StratumContribution]:
    """One-dimensional three-chain family over the irreducible-nodal target."""
    mark = _mark_factor(d)
    out = []
    for params in chain_splits(d):
        a, b, k, m, n = params
        if m == 0 or n == 0:
            continue
        monomial = a ** (m - 1) * b ** (n - 1) * (a + b) ** (k - 1)
        reduced = Fraction(normalization_branches([[a + b] * k + [a] * m + [b] * n]))
        big_l = lcm(a, b, a + b)
        count_main = Fraction(4 * m * n * mark, monomial)
        excess_main = segre_excess_contribution(a, b, "three-chain") * monomial
        total_main = _checked_row(
            count_main * excess_main,
            -8 * mark * (a + b) * m * n,
            "nodal-family/profile-edges",
            params,
        )
        out.append(
            StratumContribution(
                "delta00",
                "nodal-family/profile-edges",
                params,
                count_main,
                reduced,
                Fraction(big_l, max(a, b)),
                excess_main,
                total_main,
            )
        )
        count_sec = Fraction(8 * k * m * mark, monomial)
        excess_sec = _segre_chain_secondary(a, b) * monomial
        total_sec = _checked_row(
            count_sec * excess_sec, -16 * mark * b * k * m, "nodal-family/full-edge", params
        )
        out.append(
            StratumContribution(
                "delta00",
                "nodal-family/full-edge",
                params,
                count_sec,
                reduced,
                Fraction(big_l, a + b),
                excess_sec,
                total_sec,
            )
        )
    return out


def delta00_contributions(d: int) -> list[StratumContribution]:
    if d < 2:
        raise PipelineError("the pairing needs degree at least 2")
    return (
        _delta00_type1(d) + _delta00_type2(d) + _delta00_type3(d) + _delta00_type4(d)
    )


def delta00_stratum_aggregates(d: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four family subtotals, in the fixed order: polygon-bridge,
    three-chain points, profile family, nodal family."""
    return _family_sums(delta00_contributions(d))


def _family_sums(rows: list[StratumContribution]) -> tuple[Fraction, ...]:
    sums = dict.fromkeys(
        ("polygon-bridge", "three-chain", "profile-family", "nodal-family"), Fraction(0)
    )
    for c in rows:
        sums[c.subcase.split("/")[0]] += c.total
    return tuple(sums.values())


def delta00_closed_form(d: int) -> Fraction:
    return Fraction(4 * _mark_factor(d) * (d - 1) * sigma1(d))


def delta00_number(d: int) -> Fraction:
    """The irreducible-node pairing: stratum sum, checked against the closed
    form (the last three aggregates cancel exactly)."""
    return _checked_delta00(d, delta00_stratum_aggregates(d))


def _checked_delta00(d: int, aggregates: tuple[Fraction, ...]) -> Fraction:
    total = sum(aggregates, Fraction(0))
    closed = delta00_closed_form(d)
    if total != closed:
        raise PipelineError(
            f"d={d}: stratum route {total} disagrees with closed form {closed}"
        )
    if sum(aggregates[1:], Fraction(0)) != 0:
        raise PipelineError(f"d={d}: correction aggregates fail to cancel")
    return total


# ---------------------------------------------------------------------------
# series assembly and the quasimodularity report


@dataclass(frozen=True)
class DegreeLedger:
    """Both pairings at one degree, from one build of each ledger."""

    delta00_rows: list[StratumContribution]
    delta01_rows: list[StratumContribution]
    delta00_aggregates: tuple[Fraction, ...]
    delta00: Fraction
    delta01: Fraction


def degree_ledger(d: int) -> DegreeLedger:
    """Build the delta00 and delta01 ledgers of degree d once each, and run
    every check on them: both closed forms and the aggregate cancellation."""
    rows00 = delta00_contributions(d)
    rows01 = delta01_contributions(d)
    aggregates = _family_sums(rows00)
    return DegreeLedger(
        rows00, rows01, aggregates, _checked_delta00(d, aggregates), _checked_delta01(d, rows01)
    )


def pairing_series(numbers: Sequence[Fraction]) -> QSeries:
    """Sum over d >= 2 of numbers[d-2]/(d-2)!^2 q^d: the normalized series of
    a pairing from its values at d = 2, 3, ..."""
    coeffs = [Fraction(0), Fraction(0)]
    coeffs.extend(x / _mark_factor(d) for d, x in enumerate(numbers, start=2))
    return QSeries(tuple(coeffs))


def normalized_series(kind: str, d_max: int) -> QSeries:
    """Sum over d >= 2 of (pairing number)/(d-2)!^2 q^d, to order d_max."""
    number = {"delta00": delta00_number, "delta01": delta01_number}[kind]
    return pairing_series([number(d) for d in range(2, d_max + 1)])


@dataclass(frozen=True)
class QuasimodularityReport:
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


def quasimodularity_report(
    s00: QSeries,
    s01: QSeries,
    weight_bound: int = 4,
    fit_len: int = 20,
    holdout_len: int = 18,
) -> QuasimodularityReport:
    """Membership of the two normalized pairing series (delta00, delta01; both
    to order d_max), with split stability."""
    d_max = s00.order
    if d_max < fit_len + holdout_len - 1:
        raise PipelineError(
            f"d_max={d_max} too small for fit {fit_len} + holdout {holdout_len}"
        )
    rep00 = is_quasimodular(s00, weight_bound, fit_len, holdout_len)
    rep01 = is_quasimodular(s01, weight_bound, fit_len, holdout_len)
    stable = True
    for shift in (-5, 5):
        for series, base in ((s00, rep00), (s01, rep01)):
            moved = is_quasimodular(
                series, weight_bound, fit_len + shift, holdout_len - shift
            )
            if moved.is_member != base.is_member:
                stable = False
    return QuasimodularityReport(d_max, weight_bound, rep00, rep01, stable)
