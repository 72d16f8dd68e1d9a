"""Quasimodular forms: Eisenstein q-expansions and exact membership tests.

The ring of quasimodular forms is generated by E2, E4, E6 (weights 2, 4, 6).
Membership of a rational q-series is tested by an exact linear solve of the
first `fit_len` coefficients against the graded monomial basis up to a
weight bound, then exact verification on held-out coefficients.  A `True`
verdict is an exact identity on every supplied coefficient; it is evidence
up to the truncation order, not a proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from covercalc.exact import QSeries, sigma


def eisenstein(k: int, order: int) -> QSeries:
    """E2, E4 or E6 as a q-series to the given truncation order."""
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    if k == 2:
        weight_coeff, power = -24, 1
    elif k == 4:
        weight_coeff, power = 240, 3
    elif k == 6:
        weight_coeff, power = -504, 5
    else:
        raise ValueError(f"Eisenstein weight {k} not in {{2, 4, 6}}")
    coeffs = [Fraction(1)] + [
        Fraction(weight_coeff * sigma(n, power)) for n in range(1, order + 1)
    ]
    return QSeries(tuple(coeffs))


@dataclass(frozen=True)
class BasisMonomial:
    e2: int
    e4: int
    e6: int

    @property
    def weight(self) -> int:
        return 2 * self.e2 + 4 * self.e4 + 6 * self.e6

    def name(self) -> str:
        parts = []
        for base, exp in (("E2", self.e2), ("E4", self.e4), ("E6", self.e6)):
            if exp == 1:
                parts.append(base)
            elif exp > 1:
                parts.append(f"{base}^{exp}")
        return "*".join(parts) if parts else "1"


def quasimodular_basis(weight_bound: int, order: int) -> list[tuple[BasisMonomial, QSeries]]:
    """Monomials in E2, E4, E6 of weight <= bound, with their q-series."""
    out = []
    e2 = eisenstein(2, order)
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    max2 = weight_bound // 2
    for a, b, c in itertools.product(
        range(max2 + 1), range(weight_bound // 4 + 1), range(weight_bound // 6 + 1)
    ):
        mono = BasisMonomial(a, b, c)
        if mono.weight <= weight_bound:
            series = e2.pow(a) * e4.pow(b) * e6.pow(c)
            out.append((mono, series))
    out.sort(key=lambda item: (item[0].weight, item[0].e2, item[0].e4, item[0].e6))
    return out


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve an overdetermined exact linear system; None when inconsistent.

    Returns the solution list, with free variables set to zero.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        scale = a[r][c]
        a[r] = [x / scale for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    solution = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        solution[c] = a[i][n]
    return solution


@dataclass(frozen=True)
class MembershipReport:
    is_member: bool
    weight_bound: int
    fit_len: int
    holdout_len: int
    coefficients: tuple[tuple[str, Fraction], ...] | None
    failure_witness: str | None

    def to_json(self) -> dict:
        from covercalc.exact import rat_to_str

        return {
            "is_member": self.is_member,
            "weight_bound": self.weight_bound,
            "fit_length": self.fit_len,
            "holdout_length": self.holdout_len,
            "coefficients": (
                {name: rat_to_str(c) for name, c in self.coefficients}
                if self.coefficients is not None
                else None
            ),
            "failure_witness": self.failure_witness,
        }


def is_quasimodular(
    series: QSeries, weight_bound: int = 4, fit_len: int = 20, holdout_len: int = 18
) -> MembershipReport:
    """Exact membership of a q-series in the weight-bounded quasimodular span.

    The first fit_len coefficients are solved against the basis; the verdict
    is True only when a solution exists and reproduces all holdout
    coefficients exactly.
    """
    needed = fit_len + holdout_len
    if series.order + 1 < needed:
        raise ValueError(
            f"series known to order {series.order} but {needed} coefficients required"
        )
    basis = quasimodular_basis(weight_bound, series.order)
    if fit_len < len(basis):
        raise ValueError(
            f"fit length {fit_len} below the basis size {len(basis)}; "
            "the solve would be underdetermined"
        )
    rows = [[b.coeffs[k] for _, b in basis] for k in range(fit_len)]
    rhs = [series.coeffs[k] for k in range(fit_len)]
    solution = solve_exact(rows, rhs)
    if solution is None:
        return MembershipReport(
            False, weight_bound, fit_len, holdout_len, None,
            "no exact solution on the fitted coefficients",
        )
    for k in range(fit_len, needed):
        predicted = sum(
            (c * b.coeffs[k] for c, (_, b) in zip(solution, basis)), Fraction(0)
        )
        if predicted != series.coeffs[k]:
            return MembershipReport(
                False, weight_bound, fit_len, holdout_len, None,
                f"holdout mismatch at q^{k}: fit gives {predicted}, series has "
                f"{series.coeffs[k]}",
            )
    coeffs = tuple(
        (mono.name(), c) for c, (mono, _) in zip(solution, basis) if c != 0
    )
    return MembershipReport(True, weight_bound, fit_len, holdout_len, coeffs, None)
