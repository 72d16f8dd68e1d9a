"""Exact rational arithmetic, divisor sums, and truncated q-series.

Rationals are `fractions.Fraction` throughout; the stdlib type already
guarantees lowest terms and a positive denominator, which is exactly the
invariant the rest of the package relies on.  Serialization is "p/q"
(or "p" for integers) so that every emitted number is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" or "p"; a zero denominator is a ValueError like any other
    malformed string."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def rat_to_str(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def sigma(n: int, k: int = 1) -> int:
    """Divisor power sum: sum of d**k over positive divisors d of n."""
    if n <= 0:
        raise ValueError(f"divisor sum needs a positive argument, got {n}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            other = n // d
            if other != d:
                total += other**k
        d += 1
    return total


def sigma1(n: int) -> int:
    """Sum of the positive divisors of n."""
    return sigma(n, 1)


def divisors(n: int) -> list[int]:
    if n <= 0:
        raise ValueError(f"divisors of a positive integer only, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True)
class QSeries:
    """Truncated power series in q with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of q^k; the series is known exactly up
    to and including q^order.  Arithmetic between two series truncates to
    the smaller order: the result is only claimed where both inputs are
    known.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a QSeries needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_coeffs(coeffs: Iterable[Fraction | int], order: int | None = None) -> "QSeries":
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order + 1 < len(cs):
                cs = cs[: order + 1]
            else:
                cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        return QSeries(tuple(cs))

    @staticmethod
    def zero(order: int) -> "QSeries":
        return QSeries(tuple([Fraction(0)] * (order + 1)))

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries((Fraction(1),) + tuple([Fraction(0)] * order))

    def coefficient(self, k: int) -> Fraction:
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient q^{k} not known at truncation order {self.order}")
        return self.coeffs[k]

    def __add__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        return QSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        return QSeries(tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __neg__(self) -> "QSeries":
        return QSeries(tuple(-c for c in self.coeffs))

    def scale(self, c: Fraction | int) -> "QSeries":
        c = Fraction(c)
        return QSeries(tuple(c * x for x in self.coeffs))

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return QSeries(tuple(out))

    def pow(self, e: int) -> "QSeries":
        if e < 0:
            raise ValueError("negative powers are not supported")
        result = QSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_json(self) -> dict:
        return {"order": self.order, "coefficients": [rat_to_str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "QSeries":
        coeffs = [rat_from_str(s) for s in data["coefficients"]]
        order = int(data["order"])
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list does not match the stated order")
        return QSeries(tuple(coeffs))
