"""Named oracles for `covercalc.mbar`: the bivariant-symmetry pairing on
M_{g,n} and the subset form of the DVV step.

`pair_boundary_pushforwards(a, b)` pairs xi_A^* xi_B*(1), pushed forward
to M_{g,n}, with a fixed complementary class theta and integrates.  The
pairing is symmetric in A and B, which checks the excess-intersection
terms of `covercalc.mbar.boundary_intersection_pushforward` against their
mirror images.  With the trivial group it is also the number an
H-tautological integral of two boundary strata must reproduce.

`virasoro_step_by_subsets` is the DVV step with its split term summed over
every subset of the other points, the form `mbar._virasoro_step` sums over
sub-multisets.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from covercalc import mbar
from covercalc.graphs import StableGraph
from covercalc.mbar import (
    StratumClass,
    _double_factorial_odd,
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


def virasoro_step_by_subsets(g: int, exps: tuple[int, ...]) -> Fraction:
    """`covercalc.mbar._virasoro_step` with its split term summed over all
    2^|S| subsets I of the other indices and every genus g1, as the DVV
    equation is written.  Patched in for `_virasoro_step`, it makes
    `mbar.correlator` recurse by subsets alone."""
    k = exps[-1] - 1
    rest = exps[:-1]
    total = Fraction(0)
    for j, aj in enumerate(rest):
        term = mbar.correlator(g, rest[:j] + rest[j + 1 :] + (k + aj,))
        total += term * prod(range(2 * aj + 1, 2 * (k + aj) + 2, 2))
    half = Fraction(0)
    for p in range(0, k):
        q = k - 1 - p
        w = _double_factorial_odd(p) * _double_factorial_odd(q)
        half += w * mbar.correlator(g - 1, rest + (p, q))
        for g1 in range(0, g + 1):
            for mask in range(1 << len(rest)):
                left = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
                right = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
                half += (w * mbar.correlator(g1, left + (p,))
                         * mbar.correlator(g - g1, right + (q,)))
    return (total + half / 2) / _double_factorial_odd(k + 1)
