"""Exact rational arithmetic, divisor sums, sub-multisets, truncated q-series.

An exact number is a plain `int` where the value is known to be integral
and a `fractions.Fraction` otherwise.  The stdlib type guarantees lowest
terms and a positive denominator, the invariant the rest of the package
relies on; the integer kernels (the E2/E4/E6 basis, the fraction-free
solve, the d-elliptic ledger rows) stay in `int`s, which are far cheaper,
and meet `Fraction`s only where a value is read or printed.
Serialization is "p/q" (or "p" for integers) so that every emitted number
is exact.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, prod
from operator import mul
from typing import Iterator, Sequence

from covercalc.errors import SeriesError, json_fields, json_list


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" or "p"; a zero denominator or a value that is not a
    string is a SeriesError like any other malformed string."""
    if not isinstance(s, str):
        raise SeriesError(f"exact rational {s!r} is not a string")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise SeriesError(f"zero denominator in {s!r}") from None
    except ValueError as err:
        raise SeriesError(str(err)) from None


def rat_to_str(x: Fraction | int) -> str:
    if type(x) is int:
        return str(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def ratio_to_str(num: int, den: int) -> str:
    """num/den in lowest terms, as `rat_to_str` prints the `Fraction`, but
    reduced and signed in integers without building one."""
    if den == 0:
        raise ZeroDivisionError(f"ratio {num}/0")
    g = gcd(num, den)
    if den < 0:
        g = -g
    if den == g:
        return str(num // g)
    return f"{num // g}/{den // g}"


def sigma(n: int, k: int = 1) -> int:
    """Divisor power sum: sum of d**k over positive divisors d of n."""
    return sum(d**k for d in divisors(n))


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """The positive divisors of n, ascending; each n is factored once per
    process, and every call returns the same tuple."""
    if n <= 0:
        raise SeriesError(f"divisors of a positive integer only, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def sub_multisets(items: Sequence) -> Iterator[tuple[int, tuple, tuple]]:
    """Each sub-multiset of `items` once, as (ways, taken, left): taking c of
    a value's m copies stands for ways = prod C(m, c) subsets of positions.
    Values keep their order of first appearance, so sorted items give sorted
    `taken` and `left`."""
    counted = Counter(items)
    values, counts = tuple(counted), tuple(counted.values())
    for picks in itertools.product(*(range(m + 1) for m in counts)):
        yield (prod(comb(m, c) for m, c in zip(counts, picks)),
               tuple(v for v, c in zip(values, picks) for _ in range(c)),
               tuple(v for v, m, c in zip(values, counts, picks) for _ in range(m - c)))


def convolve(a: Sequence, b: Sequence, order: int) -> tuple:
    """Coefficients q^0..q^order of the product of two truncated series,
    given as coefficient sequences known at least to that order."""
    return tuple(sum(map(mul, a[: k + 1], b[k::-1])) for k in range(order + 1))


class QSeries:
    """Truncated power series in q with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of q^k; the series is known exactly up
    to and including q^order.  An `int` coefficient stays an `int` (so an
    integral series multiplies in integers); any other becomes a `Fraction`.
    A product of two series truncates to the smaller order: the result is
    only claimed where both inputs are known.  Two series are equal when
    their coefficient tuples are.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int | Fraction, ...]) -> None:
        if not coeffs:
            raise SeriesError("a QSeries needs at least the constant coefficient")
        self.coeffs = tuple(c if type(c) is int else Fraction(c) for c in coeffs)

    def __eq__(self, other: object) -> bool:
        if type(other) is not QSeries:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"QSeries(coeffs={self.coeffs!r})"

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "QSeries") -> "QSeries":
        return QSeries(convolve(self.coeffs, other.coeffs, min(self.order, other.order)))

    def to_json(self) -> dict:
        return {"order": self.order, "coefficients": [rat_to_str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "QSeries":
        coeffs, order = json_fields(data, "a q-series", SeriesError, ("coefficients", "order"))
        coeffs = [rat_from_str(s) for s in json_list(coeffs, "coefficients", SeriesError)]
        if type(order) is not int:
            raise SeriesError(f"order {order!r} is not an integer")
        if len(coeffs) != order + 1:
            raise SeriesError("coefficient list does not match the stated order")
        return QSeries(tuple(coeffs))
