"""The bivariant-symmetry pairing on M_{g,n}, kept as a named oracle.

`pair_boundary_pushforwards(a, b)` pairs xi_A^* xi_B*(1), pushed forward
to M_{g,n}, with a fixed complementary class theta and integrates.  The
pairing is symmetric in A and B, which checks the excess-intersection
terms of `covercalc.mbar.boundary_intersection_pushforward` against their
mirror images.  With the trivial group it is also the number an
H-tautological integral of two boundary strata must reproduce.
"""

from __future__ import annotations

from fractions import Fraction

from covercalc.graphs import StableGraph
from covercalc.mbar import (
    StratumClass,
    boundary_intersection_pushforward,
    integrate_stratum_class,
)


def pair_boundary_pushforwards(a: StableGraph, b: StableGraph) -> Fraction:
    """Number pairing <xi_A^* xi_B* (1), theta> on M_{g,n}.

    theta is psi_1^D (D = complementary degree) when the space has legs, or
    kappa_1^D otherwise.
    """
    g, n = a.genus(), a.n_legs
    dim = 3 * g - 3 + n
    d = dim - a.n_edges - b.n_edges
    if d < 0:
        return Fraction(0)
    cls = boundary_intersection_pushforward(a, b)
    terms = []
    for coeff, gamma, dec in cls.terms:
        if n >= 1:
            decorated = [(coeff, dec.with_psi_leg(0, d) if d else dec)]
        else:
            decorated = [(coeff, dec)]
            for _ in range(d):
                decorated = [
                    (c, dd.with_kappa(v, 1, 1))
                    for c, dd in decorated
                    for v in range(gamma.n_vertices)
                ]
        for c, dd in decorated:
            terms.append((c, gamma, dd))
    full = StratumClass(g, n, tuple(terms))
    return integrate_stratum_class(full)
