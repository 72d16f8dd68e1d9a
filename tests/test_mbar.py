import itertools
import random
from fractions import Fraction

import pytest

from closed_forms import genus0_closed_form
from covercalc.graphs import StableGraph, enumerate_stable_graphs, trivial_graph
from covercalc.mbar import (
    Decoration,
    IntegralError,
    StratumClass,
    boundary_intersection,
    boundary_intersection_pushforward,
    correlator,
    integrate_psi,
    integrate_psi_kappa,
    integrate_stratum_class,
    kappa_class,
    pair_boundary_pushforwards,
    psi_class,
    pullback_by_boundary,
    pullback_kappa_forgetful,
    pullback_psi_forgetful,
    rational_tail_divisor,
)


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
    for n in range(3, 9):
        for exps in compositions(n - 3, n):
            assert integrate_psi(0, exps) == genus0_closed_form(exps)


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
    assert correlator(3, (7,)) == Fraction(1, 82944)


def test_string_equation_property():
    rng = random.Random(3)
    for _ in range(40):
        g = rng.choice([0, 1])
        n = rng.randint(3 if g == 0 else 1, 7)
        target = 3 * g - 3 + n
        exps = None
        for _ in range(50):
            cand = tuple(rng.randint(0, target) for _ in range(n))
            if sum(cand) == target:
                exps = cand
                break
        if exps is None:
            continue
        lhs = correlator(g, exps + (0,))
        rhs = sum(
            (
                correlator(g, exps[:i] + (exps[i] - 1,) + exps[i + 1 :])
                for i in range(n)
                if exps[i] >= 1
            ),
            Fraction(0),
        )
        assert lhs == rhs


def test_dilaton_equation_property():
    for g, exps in [(0, (1, 0, 0, 0)), (0, (2, 0, 0, 0, 0)), (1, (1,)), (1, (2, 0)), (2, (4,))]:
        assert correlator(g, exps + (1,)) == (2 * g - 2 + len(exps)) * correlator(g, exps)


def test_integrate_psi_contract():
    with pytest.raises(IntegralError):
        integrate_psi(2, (4,))
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


def test_pullback_psi_forgetful_examples():
    cls = pullback_psi_forgetful(0, 3, 1)
    assert cls.genus == 0 and cls.n_legs == 4
    assert len(cls.terms) == 2
    coeffs = sorted(c for c, _, _ in cls.terms)
    assert coeffs == [Fraction(-1), Fraction(1)]
    d_term = next(t for t in cls.terms if t[0] == -1)
    assert d_term[1].is_isomorphic(rational_tail_divisor(0, 3, 1))
    cls2 = pullback_psi_forgetful(1, 1, 1)
    assert cls2.n_legs == 2
    with pytest.raises(IntegralError):
        pullback_psi_forgetful(1, 1, 2)


def test_pullback_kappa_forgetful_examples():
    cls = pullback_kappa_forgetful(1, 1, 1)
    assert len(cls.terms) == 2
    kinds = set()
    for c, graph, dec in cls.terms:
        assert graph.n_edges == 0
        if dec.psi_leg == (0, 1):
            kinds.add(("psi", c))
        else:
            kinds.add(("kappa", c))
    assert kinds == {("psi", Fraction(-1)), ("kappa", Fraction(1))}
    cls2 = pullback_kappa_forgetful(2, 0, 2)
    psi_term = next(t for t in cls2.terms if t[2].psi_leg != (0,))
    assert psi_term[2].psi_leg == (2,)
    with pytest.raises(IntegralError):
        pullback_kappa_forgetful(1, 1, 0)


def test_pullback_psi_forgetful_pushforward_consistency():
    # pi_*(pi^* psi_1 . psi_2) = psi_1 . pi_*(psi_2-part): integrate both on
    # M_{1,2}: int pi^*(psi_1) psi_2 = int psi_1 * kappa_0... cleanest exact
    # check: int_{M_{1,2}} pi^*(psi_1)^2 = 0 (pullback from a curve).
    cls = pullback_psi_forgetful(1, 1, 1)
    # square the two-term class by expanding: (psi - D)^2 = psi^2 - 2 psi D + D^2
    # D = rational tail with both legs: psi_1|_D = 0, D^2 = -psi at the node
    psi2 = StratumClass(
        1, 2, tuple((c * cp, g, d.with_psi_leg(0, dp.psi_leg[0]))
                    for (c, g, d) in cls.terms if g.n_edges == 0
                    for (cp, gp, dp) in cls.terms if gp.n_edges == 0)
    )
    assert integrate_stratum_class(psi2) == Fraction(1, 24)
    # and int pi^*(psi_1) . psi_1 = psi_1^2 - D.psi_1 with psi_1|_D = 0
    # known: int_{M_{1,2}} psi_1^2 = 1/24, int_D psi_1| = 0 so the product
    # pairing gives 1/24 - 0 = 1/24 = int_{M_{1,1}} psi_1 . kappa_0-free part


def test_pullback_by_boundary_routing():
    sep = StableGraph((1, 0), (0, 1), (1, 0), (1, 1))  # legs 1,2 on the genus-0 side
    cls = psi_class(1, 2, 1)
    routed = pullback_by_boundary(cls, sep)
    assert len(routed) == 1
    coeff, dec = routed[0]
    assert coeff == 1 and dec.psi_leg == (1, 0)
    kappa = kappa_class(1, 2, 1)
    routed = pullback_by_boundary(kappa, sep)
    assert len(routed) == 2  # kappa_1 x 1 + 1 x kappa_1
    with pytest.raises(IntegralError):
        pullback_by_boundary(
            StratumClass(1, 2, ((Fraction(1), sep, Decoration.trivial(sep)),)), sep
        )


def test_boundary_intersection_edgeless():
    t = trivial_graph(2, 0)
    sep = StableGraph((1, 1), (0, 1), (1, 0), ())
    terms = boundary_intersection(t, sep)
    assert len(terms) == 1
    triple, excess = terms[0]
    assert triple.gamma.is_isomorphic(sep) and excess == ()


def test_boundary_intersection_loop_genus11():
    lp = StableGraph((0,), (0, 0), (1, 0), (0,))
    terms = boundary_intersection(lp, lp)
    assert len(terms) == 2
    assert all(len(excess) == 1 for _, excess in terms)


def test_boundary_intersection_disjoint_support():
    d = StableGraph((1, 0), (0, 1), (1, 0), (1, 1))
    two_gon = StableGraph((0, 0), (0, 1, 0, 1), (1, 0, 3, 2), (0, 1))
    assert boundary_intersection(d, two_gon) == []


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
    assert integrate_stratum_class(StratumClass.zero(1, 1)) == 0
    kl = kappa_class(1, 1, 1)
    assert integrate_stratum_class(kl) == Fraction(1, 24)
    deep = trivial_graph(2, 1)
    too_deep = StratumClass(
        2, 1, ((Fraction(1), deep, Decoration.trivial(deep).with_psi_leg(0, 4)),)
    )
    with pytest.raises(IntegralError):
        integrate_stratum_class(too_deep)
    assert integrate_stratum_class(too_deep, max_vertex_genus=2) == Fraction(1, 1152)


def test_bivariant_symmetry_small():
    graphs = list(enumerate_stable_graphs(1, 1, 2))
    for a, b in itertools.product(graphs, repeat=2):
        assert pair_boundary_pushforwards(a, b) == pair_boundary_pushforwards(b, a)
