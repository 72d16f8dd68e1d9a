"""The rational routines the qmod layer used to run, kept as named oracles.

`covercalc.qmod` builds its E2/E4/E6 basis over the integers from shared
powers and solves by fraction-free (Bareiss) elimination.  The oracles here
do both the old way, over `Fraction`s:

* `oracle_basis` raises each Eisenstein series to its exponent by repeated
  squaring (`series_pow`) and multiplies the three powers with the
  schoolbook product `series_mul`, afresh for every monomial;
* `oracle_solve` is Gauss-Jordan elimination with column-order pivots,
  every row scaled to a leading one.

`oracle_basis_size` counts the basis monomials by the double loop that
`qmod._basis_size`'s closed form replaced.

The tests compare the package's basis, its size and its solutions with
these exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from covercalc.exact import QSeries
from covercalc.qmod import BasisMonomial, eisenstein


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Truncated product, coefficient by coefficient over Fractions."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a.coeffs[: n + 1]):
        if x == 0:
            continue
        for j in range(n + 1 - i):
            y = b.coeffs[j]
            if y != 0:
                out[i + j] += x * y
    return QSeries(tuple(out))


def series_pow(s: QSeries, e: int) -> QSeries:
    """s**e by repeated squaring."""
    if e < 0:
        raise ValueError("negative powers are not supported")
    result = QSeries((Fraction(1),) + (Fraction(0),) * s.order)
    base = s
    while e:
        if e & 1:
            result = series_mul(result, base)
        base = series_mul(base, base)
        e >>= 1
    return result


def oracle_basis(weight_bound: int, order: int) -> list[tuple[BasisMonomial, QSeries]]:
    """Monomials in E2, E4, E6 of weight <= bound, in the package's order."""
    out = []
    e2 = eisenstein(2, order)
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    for a, b, c in itertools.product(
        range(weight_bound // 2 + 1), range(weight_bound // 4 + 1), range(weight_bound // 6 + 1)
    ):
        mono = BasisMonomial(a, b, c)
        if mono.weight <= weight_bound:
            series = series_mul(series_mul(series_pow(e2, a), series_pow(e4, b)), series_pow(e6, c))
            out.append((mono, series))
    out.sort(key=lambda item: (item[0].weight, item[0].e2, item[0].e4, item[0].e6))
    return out


def oracle_basis_size(weight_bound: int) -> int:
    """The number of monomials E2^a E4^b E6^c of weight <= bound: for each
    (b, c), the a with 2a <= bound - 4b - 6c."""
    return sum((weight_bound - 4 * b - 6 * c) // 2 + 1
               for c in range(weight_bound // 6 + 1)
               for b in range((weight_bound - 6 * c) // 4 + 1))


def oracle_solve(rows, rhs):
    """Gauss-Jordan over Fractions; None when inconsistent, free variables 0."""
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
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
