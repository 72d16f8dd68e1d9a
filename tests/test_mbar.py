import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from closed_forms import genus1_closed_form
from covercalc.gcover import CoverError, pullback_psi_kappa_hurwitz
from covercalc.graphs import (
    StableGraph,
    enumerate_generic_AB,
    enumerate_stable_graphs,
    trivial_graph,
)
from covercalc.groups import trivial_group
from covercalc.mbar import (
    Decoration,
    IntegralError,
    StratumClass,
    boundary_intersection_pushforward,
    correlator,
    integrate_psi,
    integrate_psi_kappa,
    integrate_stratum_class,
    pullback_by_boundary,
)
from covercalc import mbar
from mbar_oracles import pair_boundary_pushforwards, virasoro_step_by_subsets


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def test_genus0_base_and_examples():
    assert integrate_psi(0, (0, 0, 0)) == 1
    assert integrate_psi(0, (1, 0, 0, 0)) == 1
    assert integrate_psi(0, (1, 1, 0, 0, 0)) == 2


def test_genus0_closed_form_matches_recursion():
    # the closed form that `correlator` returns in genus 0 satisfies the
    # string and dilaton equations on every composition with n <= 8
    for n in range(3, 9):
        for exps in compositions(n - 3, n):
            assert correlator(0, exps + (0,)) == _string_rhs(0, exps)
            assert correlator(0, exps + (1,)) == (n - 2) * correlator(0, exps)


def test_genus1_closed_form_matches_recursion():
    for n in range(1, 8):
        for exps in compositions(n, n):
            assert correlator(1, exps) == genus1_closed_form(exps), exps


def test_genus1_values():
    assert integrate_psi(1, (1,)) == Fraction(1, 24)
    assert integrate_psi(1, (2, 0)) == Fraction(1, 24)
    assert integrate_psi(1, (1, 1)) == Fraction(1, 24)
    assert integrate_psi(1, (2, 1, 0)) == Fraction(1, 12)
    assert integrate_psi(1, (1, 1, 1)) == Fraction(1, 12)


def test_genus2_values_against_literature():
    # published Witten-Kontsevich values for genus 2
    assert correlator(2, (4,)) == Fraction(1, 1152)
    assert correlator(2, (5, 0)) == Fraction(1, 1152)
    assert correlator(2, (4, 1)) == Fraction(1, 384)
    assert correlator(2, (3, 2)) == Fraction(29, 5760)
    assert correlator(2, (2, 2, 2)) == Fraction(7, 240)
    assert correlator(3, (7,)) == Fraction(1, 82944)


@pytest.mark.parametrize("g", range(1, 8))
def test_witten_one_point_values(g):
    # <tau_{3g-2}>_g = 1 / (24^g g!)
    assert correlator(g, (3 * g - 2,)) == Fraction(1, 24**g * factorial(g))


@pytest.mark.parametrize("m", [1, 50, 400])
@pytest.mark.parametrize("g", range(1, 5))
def test_string_chains_keep_the_one_point_value(g, m):
    # m string steps lower tau_{3g-2+m} to tau_{3g-2}: <tau_0^m tau_{3g-2+m}>_g
    # = 1 / (24^g g!); the chain once recursed once per tau_0 in genus >= 1
    assert correlator(g, (0,) * m + (3 * g - 2 + m,)) == Fraction(1, 24**g * factorial(g))


def _seeded_exponents(rng, g):
    """A top-degree exponent vector on a stable M_{g,n} with n <= 7, each of
    the 3g-3+n degrees placed on a random point."""
    n = rng.randint(3 if g == 0 else 1, 7)
    exps = [0] * n
    for _ in range(3 * g - 3 + n):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _string_rhs(g, exps):
    """The right side of the string equation for <tau_0 tau_exps>_g."""
    return sum((correlator(g, exps[:i] + (a - 1,) + exps[i + 1:])
                for i, a in enumerate(exps) if a >= 1), Fraction(0))


def test_string_equation_property():
    rng = random.Random(3)
    for g in (0, 1, 2, 3):
        for _ in range(12):
            exps = _seeded_exponents(rng, g)
            assert correlator(g, exps + (0,)) == _string_rhs(g, exps), (g, exps)


def test_dilaton_equation_property():
    for g, exps in [(0, (1, 0, 0, 0)), (0, (2, 0, 0, 0, 0)), (1, (1,)), (1, (2, 0)), (2, (4,))]:
        assert correlator(g, exps + (1,)) == (2 * g - 2 + len(exps)) * correlator(g, exps)
    rng = random.Random(5)
    for g in (2, 3):
        for _ in range(12):
            exps = _seeded_exponents(rng, g)
            assert correlator(g, exps + (1,)) == (2 * g - 2 + len(exps)) * correlator(g, exps)


def test_dvv_splits_by_sub_multisets_match_the_subset_form(monkeypatch):
    # 120 seeded correlators with g <= 4 and n <= 6, each evaluated through
    # the package's recursion and again with every DVV step by subsets
    rng = random.Random(8)
    cases = []
    for _ in range(120):
        g, n = rng.randint(1, 4), rng.randint(1, 6)
        exps = [0] * n
        for _ in range(3 * g - 3 + n):
            exps[rng.randrange(n)] += 1
        cases.append((g, tuple(exps)))
    try:
        correlator.cache_clear()
        by_multisets = [correlator(g, exps) for g, exps in cases]
        monkeypatch.setattr(mbar, "_virasoro_step", virasoro_step_by_subsets)
        correlator.cache_clear()
        by_subsets = [correlator(g, exps) for g, exps in cases]
    finally:
        correlator.cache_clear()
    assert all(by_multisets)
    assert by_multisets == by_subsets


def test_integrate_psi_contract():
    with pytest.raises(IntegralError, match="negative"):
        integrate_psi(-1, (1,))
    with pytest.raises(IntegralError):
        integrate_psi(0, (0, 0))
    with pytest.raises(IntegralError):
        integrate_psi(0, (1, 0, 0))  # dimension mismatch


def test_kappa_integrals():
    # kappa_1 on M_{1,1} = <tau_0 tau_2>_1 = 1/24 via the conversion
    assert integrate_psi_kappa(1, (0,), (1,)) == Fraction(1, 24)
    # kappa_1 on M_{0,4} = pi_*(psi_5^2): <tau_0^4 tau_2>_0 = 1
    assert integrate_psi_kappa(0, (0, 0, 0, 0), (1,)) == 1
    # kappa_1 powers in genus 0 are the Weil-Petersson volume numbers
    assert integrate_psi_kappa(0, (0,) * 5, (1, 1)) == 5
    assert integrate_psi_kappa(0, (0,) * 6, (1, 1, 1)) == 61
    assert integrate_psi_kappa(0, (0,) * 7, (1, 1, 1, 1)) == 1379


def _forgetful(cls: str, **params):
    """The terms of the forgetful pullback rule for the trivial group."""
    formula = pullback_psi_kappa_hurwitz("forgetful", cls=cls, group=trivial_group(), **params)
    return list(formula.terms)


def test_pullback_psi_forgetful_examples():
    # pi^*(psi_i) = psi_i - [D_{i,n+1}]: one section divisor for G trivial
    assert _forgetful("psi", h=(0,)) == [
        ("psi", "same point", 1),
        ("section-divisor", "relabeled section at coset of (1,)", -1),
    ]
    with pytest.raises(CoverError):
        _forgetful("psi", h=(1, 0))  # not an element of the group


def test_pullback_kappa_forgetful_examples():
    # pi^*(kappa_i) = kappa_i - psi_{n+1}^i
    for i in (1, 2):
        assert _forgetful("kappa", index=i) == [
            ("kappa", f"index {i}", 1),
            ("psi-new-point-power", f"exponent {i}", -1),
        ]
    with pytest.raises(CoverError):
        _forgetful("kappa", index=0)  # kappa_0 is a constant


def _smooth_class(g: int, n: int, coeff, dec_of) -> StratumClass:
    """coeff times one decoration of the smooth graph of M_{g,n}."""
    smooth = trivial_graph(g, n)
    return StratumClass(g, n, ((Fraction(coeff), smooth, dec_of(Decoration.trivial(smooth))),))


def test_pullback_psi_forgetful_pushforward_consistency():
    # the D-free part of pi^*(psi_1) on M_{1,2} is psi_1 with coefficient 1;
    # D restricts psi_1 to zero, so int pi^*(psi_1)^2 = int_{M_{1,2}} psi_1^2
    c = _forgetful("psi", h=(0,))[0][2]
    psi2 = _smooth_class(1, 2, c * c, lambda dec: dec.with_psi_leg(0, 2))
    assert integrate_stratum_class(psi2) == Fraction(1, 24)


def test_pullback_by_boundary_routing():
    sep = StableGraph((1, 0), (0, 1), (1, 0), (1, 1))  # legs 1,2 on the genus-0 side
    cls = _smooth_class(1, 2, 1, lambda dec: dec.with_psi_leg(0, 1))
    routed = pullback_by_boundary(cls, sep)
    assert len(routed) == 1
    coeff, dec = routed[0]
    assert coeff == 1 and dec.psi_leg == (1, 0)
    kappa = _smooth_class(1, 2, 1, lambda dec: dec.with_kappa(0, 1, 1))
    routed = pullback_by_boundary(kappa, sep)
    assert len(routed) == 2  # kappa_1 x 1 + 1 x kappa_1
    with pytest.raises(IntegralError):
        pullback_by_boundary(
            StratumClass(1, 2, ((Fraction(1), sep, Decoration.trivial(sep)),)), sep
        )


def test_boundary_intersection_edgeless():
    t = trivial_graph(2, 0)
    sep = StableGraph((1, 1), (0, 1), (1, 0), ())
    terms = enumerate_generic_AB(t, sep)
    assert len(terms) == 1
    assert terms[0].gamma.canonical_key() == sep.canonical_key()
    assert terms[0].common_edges() == ()


def test_boundary_intersection_loop_genus11():
    lp = StableGraph((0,), (0, 0), (1, 0), (0,))
    terms = enumerate_generic_AB(lp, lp)
    assert len(terms) == 2
    assert all(len(t.common_edges()) == 1 for t in terms)


def test_boundary_intersection_disjoint_support():
    d = StableGraph((1, 0), (0, 1), (1, 0), (1, 1))
    two_gon = StableGraph((0, 0), (0, 1, 0, 1), (1, 0, 3, 2), (0, 1))
    assert enumerate_generic_AB(d, two_gon) == []


def test_self_intersection_vanishes_on_m12():
    # independent check of term counts: xi_A*(1) = 24 lambda on M_{1,2} and
    # lambda^2 = 0, so the full self-intersection number integrates to 0
    a = StableGraph((0,), (0, 0), (1, 0), (0, 0))  # loop with both legs
    cls = boundary_intersection_pushforward(a, a)
    assert integrate_stratum_class(cls) == 0


def test_integrate_stratum_class_examples():
    g = trivial_graph(0, 4)
    cls = StratumClass(0, 4, ((Fraction(1), g, Decoration.trivial(g).with_psi_leg(0, 1)),))
    assert integrate_stratum_class(cls) == 1
    assert integrate_stratum_class(StratumClass(1, 1, ())) == 0
    kl = _smooth_class(1, 1, 1, lambda dec: dec.with_kappa(0, 1, 1))
    assert integrate_stratum_class(kl) == Fraction(1, 24)
    deep = trivial_graph(2, 1)
    genus_two = StratumClass(
        2, 1, ((Fraction(1), deep, Decoration.trivial(deep).with_psi_leg(0, 4)),)
    )
    assert integrate_stratum_class(genus_two) == Fraction(1, 1152)


def test_bivariant_symmetry_small():
    graphs = list(enumerate_stable_graphs(1, 1, 2))
    for a, b in itertools.product(graphs, repeat=2):
        assert pair_boundary_pushforwards(a, b) == pair_boundary_pushforwards(b, a)


def _psi1_boundary_expression(g: int, n: int) -> list[tuple[Fraction, StableGraph]]:
    """psi_1 on M_{g,n} as boundary pushforwards (coefficient, graph), for g in
    {0, 1}: in genus 0, the sum of D_S over S containing 1 and neither of the
    points 2, 3; in genus 1, delta_irr / 12 plus the sum of delta_{0,S} over
    S containing 1 with |S| >= 2, where delta_irr = xi_*(1) / 2 (the loop's
    gluing map has degree 2).  Leg i is point i + 1."""
    out = []
    for size in range(2, n + 1):
        for rest in itertools.combinations(range(1, n), size - 1):
            side = {0, *rest}
            if g == 0 and {1, 2} & side:
                continue
            # vertex 0: genus 0 with the points in S; vertex 1: the others
            legs = tuple(0 if i in side else 1 for i in range(n))
            out.append((Fraction(1), StableGraph((0, g), (0, 1), (1, 0), legs)))
    if g == 1:
        loop = StableGraph((0,), (0, 0), (1, 0), (0,) * n)
        out.append((Fraction(1, 24), loop))
    return out


@pytest.mark.parametrize("g, n", [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (1, 4)])
def test_psi_equals_its_boundary_expression(g, n):
    # int psi_1 psi^a two ways: a correlator, and psi^a pulled back to each
    # boundary divisor of psi_1's expression and integrated there.  Unlike a
    # Gram rank, this sees a wrong scale on one stratum (an automorphism
    # factor or a sign).
    smooth = trivial_graph(g, n)
    divisors = _psi1_boundary_expression(g, n)
    for a in compositions(3 * g - 4 + n, n):
        dec = Decoration(a, (), ((),))
        monomial = StratumClass(g, n, ((Fraction(1), smooth, dec),))
        terms = tuple((c * coeff, graph, pulled)
                      for c, graph in divisors
                      for coeff, pulled in pullback_by_boundary(monomial, graph))
        expected = correlator(g, (a[0] + 1,) + a[1:])
        assert integrate_stratum_class(StratumClass(g, n, terms)) == expected, a
