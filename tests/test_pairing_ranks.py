"""The whole untwisted pipeline against Keel and Mumford.

Boundary strata span H*(M̄_{0,n}) and the intersection pairing is perfect
(Keel, *Intersection theory of moduli space of stable n-pointed curves of
genus zero*, 1992), so the Gram matrix of the codim-k strata against the
codim-(dim-k) strata has rank b_{2k}.  Each entry runs the generic
(A,B)-graphs, the excess factor (-psi_h - psi_h') and the vertex
correlators together, so a sign or automorphism slip anywhere changes a
rank.  M̄_2 has Betti numbers 1, 2, 2, 1 (Mumford, *Towards an enumerative
geometry of the moduli space of curves*, 1983); the M̄_{1,3} rank is a
regression value.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from covercalc.graphs import enumerate_stable_graphs, trivial_graph
from covercalc.mbar import (
    Decoration,
    StratumClass,
    boundary_intersection_pushforward,
    integrate_stratum_class,
)


def keel_poincare(n: int) -> list[int]:
    """Coefficients of the Poincaré polynomial P_n(q) of M̄_{0,n}, q = t^2:
    P_{n+1} = (1+q) P_n + (q/2) sum_{j=2}^{n-2} C(n,j) P_{j+1} P_{n-j+1},
    with P_3 = 1."""
    polys = {3: [1]}
    for m in range(3, n):
        splits = [0] * (m - 1)
        for j in range(2, m - 1):
            for i, a in enumerate(polys[j + 1]):
                for k, b in enumerate(polys[m - j + 1]):
                    splits[i + k + 1] += comb(m, j) * a * b
        # j and m - j give the same split, so the sum is even
        assert all(x % 2 == 0 for x in splits)
        own = polys[m] + [0]
        polys[m + 1] = [own[i] + (own[i - 1] if i else 0) + splits[i] // 2
                        for i in range(m - 1)]
    return polys[n]


def rank(matrix: list[list[Fraction]]) -> int:
    """Rank by plain Gaussian elimination over the rationals."""
    rows = [list(row) for row in matrix]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / rows[r][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def strata_by_codim(g: int, n: int) -> dict[int, list]:
    dim = 3 * g - 3 + n
    out: dict[int, list] = {}
    for graph in enumerate_stable_graphs(g, n, dim):
        out.setdefault(graph.n_edges, []).append(graph)
    return out


def gram(left: list, right: list) -> list[list[Fraction]]:
    return [[integrate_stratum_class(boundary_intersection_pushforward(a, b)) for b in right]
            for a in left]


def test_keel_recursion_gives_the_betti_numbers_of_mbar_0n():
    assert keel_poincare(4) == [1, 1]
    assert keel_poincare(5) == [1, 5, 1]
    assert keel_poincare(6) == [1, 16, 16, 1]
    assert keel_poincare(7) == [1, 42, 127, 42, 1]


def test_rank_of_small_matrices():
    assert rank([]) == 0
    assert rank([[Fraction(0), Fraction(0)]]) == 0
    assert rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert rank([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == 2


# (g, n, k, rank of the codim-k x codim-(dim-k) Gram)
PAIRINGS = [
    (0, 5, 1, keel_poincare(5)[1]),
    (0, 6, 1, keel_poincare(6)[1]),
    (2, 0, 1, 2),  # Mumford: b_2(M̄_2) = 2
    (1, 3, 1, 5),  # regression value
]


@pytest.mark.parametrize("g, n, k, expected", PAIRINGS,
                         ids=[f"M{g},{n} codim {k}" for g, n, k, _ in PAIRINGS])
def test_boundary_strata_pairing_has_the_betti_rank(g, n, k, expected):
    strata = strata_by_codim(g, n)
    dim = 3 * g - 3 + n
    matrix = gram(strata[k], strata[dim - k])
    assert rank(matrix) == expected
    # the pairing is symmetric: B . A gives the transposed Gram entry by entry
    transposed = gram(strata[dim - k], strata[k])
    assert transposed == [list(col) for col in zip(*matrix)]


def test_smooth_psi_7_on_mbar_3_1():
    smooth = trivial_graph(3, 1)
    cls = StratumClass(3, 1, ((Fraction(1), smooth, Decoration.trivial(smooth).with_psi_leg(0, 7)),))
    assert integrate_stratum_class(cls) == Fraction(1, 82944)
