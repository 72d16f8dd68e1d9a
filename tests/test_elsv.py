"""ELSV in genus 0: Hurwitz counts from S_d characters against ψ integrals.

The ELSV formula (Ekedahl–Lando–Shapiro–Vainshtein, *Hurwitz numbers and
intersections on moduli spaces of curves*, 2001) writes the Hurwitz number
of genus-g covers of the line with one branch profile μ, a partition of d
with n parts, and r = 2g − 2 + d + n further simple branch points as a
Hodge integral on M̄_{g,n}.  In genus 0 the Hodge class is 1 and it reads

    H_{0,μ} = r!/|Aut μ| · Π_i μ_i^{μ_i}/μ_i! · Σ_a Π_i μ_i^{a_i} ⟨τ_{a_1} … τ_{a_n}⟩_0,

a running over the exponent vectors of total degree n − 3, and |Aut μ| the
product of the factorials of μ's multiplicities.

Unit convention: H_{0,μ} is `hurwitz_cover_count(d, [[2, 1, …]] * r + [μ],
weighted=True)`, the transitive product-one tuples over d!, each cover
weighted by 1/#Aut.  With that count the factors r! and 1/|Aut μ| stand as
written above.  The ψ side is `mbar.correlator`, so this ties the `hurwitz`
layer to the `mbar` layer; neither computed the other's number.
"""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from covercalc.hurwitz import hurwitz_cover_count, partitions
from covercalc.mbar import correlator

PROFILES = [(d, mu) for d in range(3, 8) for mu in partitions(d) if len(mu) >= 3]


def _compositions(total: int, parts: int):
    """Every tuple of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def elsv_genus0(mu: tuple[int, ...]) -> Fraction:
    """The right-hand side of ELSV in genus 0, with the ψ integrals from
    `correlator`."""
    n, r = len(mu), sum(mu) + len(mu) - 2
    aut = prod(factorial(m) for m in Counter(mu).values())
    front = Fraction(factorial(r) * prod(m**m for m in mu),
                     aut * prod(factorial(m) for m in mu))
    psi = sum(prod(m**a for m, a in zip(mu, exps)) * correlator(0, exps)
              for exps in _compositions(n - 3, n))
    return front * psi


def test_every_profile_of_degree_at_most_7_with_3_or_more_parts_is_listed():
    assert len(PROFILES) == 25


@pytest.mark.parametrize("d, mu", PROFILES, ids=[",".join(map(str, mu)) for _, mu in PROFILES])
def test_genus_0_hurwitz_counts_satisfy_elsv(d, mu):
    r = d + len(mu) - 2
    transposition = [2] + [1] * (d - 2)
    count = hurwitz_cover_count(d, [transposition] * r + [list(mu)], weighted=True)
    assert count == elsv_genus0(mu)


def test_elsv_genus_0_reduces_to_hurwitzs_formula_for_unramified_profiles():
    # μ = (1^d): the ψ sum is Σ_a ⟨τ_a⟩_0 = d^(d−3), so H = (2d−2)! d^(d−3)/d!
    for d in range(3, 8):
        assert elsv_genus0((1,) * d) == Fraction(factorial(2 * d - 2) * d ** (d - 3), factorial(d))
