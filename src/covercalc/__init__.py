"""Exact intersection calculus for moduli of admissible Galois covers.

Everything is computed over exact rationals: stable-graph boundary
intersections, admissible cover combinatorics, Hurwitz counts, the genus-2
d-elliptic pipeline, and quasimodularity membership tests.
"""

from covercalc.exact import QSeries, sigma1

__all__ = ["QSeries", "sigma1"]
