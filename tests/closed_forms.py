"""Closed-form oracles for the mbar and d-elliptic layers.

Each is an identity from the literature that the package never uses
itself: the tests check the package's recursions against them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod
from types import SimpleNamespace

from covercalc.delliptic import PipelineError, am_bn_splits
from covercalc.exact import rat_to_str, sigma
from covercalc.mbar import IntegralError


def genus1_closed_form(exponents) -> Fraction:
    """Dijkgraaf's genus-1 formula for sum(a_i) = n: multinomial(n; a)/24 *
    (1 - sum_{i>=2} (i-2)!(n-i)!/n! e_i(a)), with e_i the elementary
    symmetric polynomials of the exponents."""
    exponents = tuple(exponents)
    n = len(exponents)
    if n < 1 or sum(exponents) != n:
        raise IntegralError("not a top-degree genus-1 exponent vector")
    elem = [1] + [0] * n
    for a in exponents:
        for i in range(n, 0, -1):
            elem[i] += elem[i - 1] * a
    correction = sum(Fraction(factorial(i - 2) * factorial(n - i), factorial(n)) * elem[i]
                     for i in range(2, n + 1))
    multinomial = Fraction(factorial(n), prod(factorial(a) for a in exponents))
    return multinomial / 24 * (1 - correction)


def normalization_branches_list_form(node_indices) -> int:
    """prod(e_i)/lcm(e_i) per target node, independent nodes multiplying,
    with each node's ramification indices listed once per node over it."""
    total = 1
    for indices in node_indices:
        if not indices:
            continue
        if min(indices) < 1:
            raise PipelineError("ramification indices must be positive")
        total *= prod(indices) // lcm(*indices)
    return total


def segre_chain(node_rams, cover_ram, target_degree, branch_factor) -> Fraction:
    """The psi-coefficient chain of a one-dimensional excess family in
    `Fraction`s: the psi^1 coefficient of (1 - (L/e1) psi)(1 - (L/e2) psi)
    (M + M^2 psi), M = L / max(e1, e2), times the psi integral (2/L) *
    target_degree * branch_factor, with L = cover_ram."""
    e1, e2 = node_rams
    L = cover_ram
    m_thick = Fraction(L, max(e1, e2))
    psi1 = m_thick * m_thick - (Fraction(L, e1) + Fraction(L, e2)) * m_thick
    integral_psi = Fraction(2, L) * target_degree * branch_factor
    return psi1 * integral_psi


def david_identity(d: int) -> Fraction:
    """sum over am+bn=d (all positive) of (mn - am) min(a,b); always zero."""
    if d < 1:
        raise PipelineError("degree must be positive")
    return Fraction(sum((m * n - a * m) * min(a, b) for a, b, m, n in am_bn_splits(d)))


def david_identity_mirror(d: int) -> Fraction:
    return Fraction(sum((m * n - b * n) * min(a, b) for a, b, m, n in am_bn_splits(d)))


def delta00_closed_form(d: int) -> Fraction:
    """The irreducible-node pairing: (d-2)!^2 * 4(d-1) sigma(d)."""
    return Fraction(factorial(d - 2) ** 2 * 4 * (d - 1) * sigma(d))


def delta01_closed_form(d: int) -> Fraction:
    """The separating-node pairing: (d-2)!^2 * 2 sum_{0<e<d} sigma(e) sigma(d-e)."""
    convolution = sum(sigma(e) * sigma(d - e) for e in range(1, d))
    return Fraction(factorial(d - 2) ** 2 * 2 * convolution)


def row_values(row) -> SimpleNamespace:
    """A d-elliptic ledger row with its values as `Fraction`s, the mark put
    back, read from the row's integer fields: count, reduced_degree,
    multiplicity, excess_value (None for isolated points) and total, next to
    the row's own fields."""
    excess = None if row.excess_num is None else Fraction(row.excess_num, row.excess_den)
    return SimpleNamespace(
        **row._asdict(),
        count=Fraction(row.mark * row.count_num, row.count_den),
        reduced_degree=Fraction(row.reduced),
        multiplicity=Fraction(row.mult_num, row.mult_den),
        excess_value=excess,
        total=Fraction(row.mark * row.normalized_total),
    )


def ledger_row_json(row) -> dict:
    """The object `delliptic --ledger` prints for a ledger row, built from
    its `Fraction` values (`row_values`): stratum, subcase and params as they
    are, every value as "p/q" in lowest terms ("p" when integral), and
    excess_value None for an isolated point."""
    values = row_values(row)
    excess = values.excess_value
    return {
        "stratum": values.stratum,
        "subcase": values.subcase,
        "params": list(values.params),
        "count": rat_to_str(values.count),
        "reduced_degree": rat_to_str(values.reduced_degree),
        "multiplicity": rat_to_str(values.multiplicity),
        "excess_value": None if excess is None else rat_to_str(excess),
        "total": rat_to_str(values.total),
    }
