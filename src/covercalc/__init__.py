"""Exact intersection calculus for moduli of admissible Galois covers.

Everything is computed over exact rationals: stable-graph boundary
intersections, admissible cover combinatorics, Hurwitz counts, the genus-2
d-elliptic pipeline, and quasimodularity membership tests.  The layers are
the modules of this package; importing the package itself loads none of
them.
"""
