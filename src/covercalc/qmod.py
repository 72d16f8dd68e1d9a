"""Quasimodular forms: Eisenstein q-expansions and exact membership tests.

The ring of quasimodular forms is generated by E2, E4, E6 (weights 2, 4, 6;
Kaneko-Zagier 1995).  Membership of a rational q-series is tested by an
exact linear solve of the first `fit_len` coefficients against the graded
monomial basis up to a weight bound, then exact verification on held-out
coefficients.  A `True` verdict is an exact identity on every supplied
coefficient; it is evidence up to the truncation order, not a proof.

Both kernels run in integers.  The basis E2^a E4^b E6^c has integer
coefficients and is built from shared powers: each power of E2, E4 and E6
once, each product E4^b E6^c once, then one product per monomial.  The
solve clears the denominators of each row and runs fraction-free (Bareiss)
elimination, in which every entry stays an integer minor of the scaled
system (Bareiss, Math. Comp. 22, 1968); only the solution itself is a
`Fraction`.  Holdout coefficients are compared over that solution's common
denominator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from covercalc.errors import InvariantError, SeriesError
from covercalc.exact import QSeries, convolve, rat_to_str, sigma


def eisenstein(k: int, order: int) -> QSeries:
    """E2, E4 or E6 as a q-series to the given truncation order."""
    if order < 0:
        raise SeriesError(f"truncation order {order} is negative")
    if k == 2:
        weight_coeff, power = -24, 1
    elif k == 4:
        weight_coeff, power = 240, 3
    elif k == 6:
        weight_coeff, power = -504, 5
    else:
        raise SeriesError(f"Eisenstein weight {k} not in {{2, 4, 6}}")
    coeffs = [1] + [weight_coeff * sigma(n, power) for n in range(1, order + 1)]
    return QSeries(tuple(coeffs))


class BasisMonomial(NamedTuple):
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


def _powers(base: tuple[int, ...], top: int, order: int) -> list[tuple[int, ...]]:
    """base^0 .. base^top to q^order, each from the one before."""
    out = [(1,) + (0,) * order]
    for _ in range(top):
        out.append(convolve(out[-1], base, order))
    return out


def _basis_size(weight_bound: int) -> int:
    """The number of monomials E2^a E4^b E6^c of weight <= bound, counted
    without building their series: the (a, b, c) with a + 2b + 3c <= n for
    n = bound // 2, whose count is the floor of (2n^3 + 21n^2 + 66n + 72)/72."""
    n = weight_bound // 2
    return (2 * n**3 + 21 * n**2 + 66 * n + 72) // 72


def quasimodular_basis(weight_bound: int, order: int) -> list[tuple[BasisMonomial, QSeries]]:
    """Monomials in E2, E4, E6 of weight <= bound, with their integer q-series."""
    e2, e4, e6 = (eisenstein(k, order).coeffs for k in (2, 4, 6))
    p2 = _powers(e2, weight_bound // 2, order)
    p4 = _powers(e4, weight_bound // 4, order)
    p6 = _powers(e6, weight_bound // 6, order)
    e46 = {}
    out = []
    for a, b, c in itertools.product(
        range(weight_bound // 2 + 1), range(weight_bound // 4 + 1), range(weight_bound // 6 + 1)
    ):
        mono = BasisMonomial(a, b, c)
        if mono.weight > weight_bound:
            continue
        # a power of exponent 0 is 1: no product is taken with it
        if (b, c) not in e46:
            e46[b, c] = convolve(p4[b], p6[c], order) if b and c else p4[b] if b else p6[c]
        series = e46[b, c]
        if a:
            series = convolve(p2[a], series, order) if b or c else p2[a]
        out.append((mono, QSeries(series)))
    out.sort(key=lambda item: (item[0].weight, item[0].e2, item[0].e4, item[0].e6))
    return out


def _integer_row(row: list, rhs) -> list[int]:
    """The row with its right-hand side appended, times the lcm of their
    denominators."""
    scale = lcm(*(x.denominator for x in row), rhs.denominator)
    return [x.numerator * (scale // x.denominator) for x in row] + [
        rhs.numerator * (scale // rhs.denominator)
    ]


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve an overdetermined exact linear system; None when inconsistent.

    Returns the solution list, with free variables set to zero.  Entries may
    be ints or Fractions.  Fraction-free elimination with column-order
    pivots: after the step on pivot p, every entry below it is
    (p * entry - factor * pivot_row_entry) / previous pivot, an exact
    integer division.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [_integer_row(row, rhs[i]) for i, row in enumerate(rows)]
    pivots = []
    prev = 1
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top = a[r]
        p = top[c]
        tail = top[c:]
        for i in range(r + 1, m):
            row = a[i]
            f = row[c]
            if f:
                a[i] = row[:c] + [(p * x - f * y) // prev for x, y in zip(row[c:], tail)]
            elif p != prev:  # a zero in the pivot column still scales by p / prev
                a[i] = row[:c] + [p * x // prev for x in row[c:]]
        pivots.append(c)
        prev = p
        r += 1
        if r == m:
            break
    if any(a[i][n] for i in range(r, m)):
        return None
    # Back substitution: prev is the determinant of the pivot block, so
    # prev * x is an integer vector (Cramer); each step divides exactly.
    scaled = [0] * r
    for i in range(r - 1, -1, -1):
        row = a[i]
        acc = prev * row[n] - sum(row[pivots[j]] * scaled[j] for j in range(i + 1, r))
        q, rem = divmod(acc, row[pivots[i]])
        if rem:
            raise InvariantError(f"back substitution left remainder {rem} in row {i}")
        scaled[i] = q
    solution = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        solution[c] = Fraction(scaled[i], prev)
    return solution


class MembershipReport(NamedTuple):
    is_member: bool
    weight_bound: int
    fit_len: int
    holdout_len: int
    coefficients: tuple[tuple[str, Fraction], ...] | None
    failure_witness: str | None

    def to_json(self) -> dict:
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
    series: QSeries, weight_bound: int, fit_len: int, holdout_len: int
) -> MembershipReport:
    """Exact membership of a q-series in the weight-bounded quasimodular span.

    The first fit_len coefficients are solved against the basis; the verdict
    is True only when a solution exists and reproduces all holdout
    coefficients exactly.
    """
    if holdout_len < 0:
        raise SeriesError(f"holdout length {holdout_len} is negative")
    needed = fit_len + holdout_len
    if series.order + 1 < needed:
        raise SeriesError(
            f"series known to order {series.order} but {needed} coefficients required"
        )
    if weight_bound < 0:
        raise SeriesError(f"weight bound {weight_bound} is negative")
    size = _basis_size(weight_bound)
    if fit_len < size:
        raise SeriesError(
            f"fit length {fit_len} below the basis size {size}; "
            "the solve would be underdetermined"
        )
    basis = quasimodular_basis(weight_bound, needed - 1)
    columns = [b.coeffs for _, b in basis]
    rows = [[col[k] for col in columns] for k in range(fit_len)]
    rhs = [series.coeffs[k] for k in range(fit_len)]
    solution = solve_exact(rows, rhs)
    if solution is None:
        return MembershipReport(
            False, weight_bound, fit_len, holdout_len, None,
            "no exact solution on the fitted coefficients",
        )
    # compare over the solution's common denominator: integers only
    den = lcm(*(c.denominator for c in solution))
    nums = [c.numerator * (den // c.denominator) for c in solution]
    for k in range(fit_len, needed):
        scaled = sum(num * col[k] for num, col in zip(nums, columns))
        target = series.coeffs[k]
        if scaled * target.denominator != target.numerator * den:
            return MembershipReport(
                False, weight_bound, fit_len, holdout_len, None,
                f"holdout mismatch at q^{k}: fit gives {Fraction(scaled, den)}, series has "
                f"{target}",
            )
    coeffs = tuple(
        (mono.name(), c) for c, (mono, _) in zip(solution, basis) if c != 0
    )
    return MembershipReport(True, weight_bound, fit_len, holdout_len, coeffs, None)
