"""Tautological classes on moduli of stable curves.

Decorated boundary strata with exact rational coefficients: the psi/kappa
pullback to a boundary stratum, the excess-intersection formula for two
boundary strata, and top-degree integration.

Integrals of psi monomials, in every genus, come from three ingredients:
genus 0 in closed form, (n-3)!/prod(a_i!); the dilaton and string
equations, each run as a loop; and one DVV (Virasoro) step on a smallest
index of at least 2.  <tau_1>_1 = 1/24 is the one external constant (the
standard Witten-Kontsevich value).

`integrate_psi` refuses a genus above MAX_GENUS = 20 before the recursion
runs: `integrate --genus 20 --exponents 58` takes about 6 s and genus 25
(exponent 73) about 22 s on a 2-core Xeon (Python 3.11).  In genus >= 1
it also refuses more than MAX_DVV_POINTS = 21 points of exponent >= 2, the
points a DVV step sums over (the loops remove every 0 and 1 first):
tau_2^(3g-3) takes 2.1 s at g = 8 (21 points), 4.9 s at g = 9 and 54 s at
g = 11 as a CLI call.  The count does not bound the cost at a higher
genus: 21 points of exponent 3 or 4 in genus 14 or 20 run past 40 s.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import TYPE_CHECKING, NamedTuple

from covercalc.errors import GraphError, IntegralError
from covercalc.exact import rat_to_str, sub_multisets

if TYPE_CHECKING:
    from covercalc.graphs import StableGraph


def __getattr__(name: str):
    # graphs, and groups under it, load on the first boundary intersection, not
    # for `integrate`; perfbench's tracer tests reach this re-exported name
    if name == "enumerate_generic_AB":
        from covercalc.graphs import enumerate_generic_AB

        return enumerate_generic_AB
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# psi correlators


def _double_factorial_odd(k: int) -> int:
    # (2k+1)!! with the empty product (-1)!! = 1
    return prod(range(1, 2 * k + 2, 2))


TAU1_GENUS1 = Fraction(1, 24)  # <tau_1>_1, external Witten-Kontsevich constant

# The largest genus `integrate_psi` evaluates, and in genus >= 1 the most
# points of exponent >= 2 it evaluates.
MAX_GENUS = 20
MAX_DVV_POINTS = 21


@lru_cache(maxsize=None)
def correlator(g: int, exponents: tuple[int, ...]) -> Fraction:
    """<tau_{a_1} ... tau_{a_n}>_g, zero unless sum(a) = 3g - 3 + n.

    Genus 0 is the closed form (n-3)!/prod(a_i!).  In genus >= 1 the
    dilaton loop drops each tau_1 while another point remains, and the string
    loop drops each tau_0; past the base case <tau_1>_1 = 1/24, one
    `_virasoro_step` on the smallest index recurses.
    """
    n = len(exponents)
    if g < 0 or any(a < 0 for a in exponents):
        raise IntegralError("negative genus or exponent")
    if n == 0 or sum(exponents) != 3 * g - 3 + n or (g == 0 and n < 3):
        return Fraction(0)
    if g == 0:
        return Fraction(factorial(n - 3), prod(factorial(a) for a in exponents))
    exps = tuple(sorted(exponents, reverse=True))
    # dilaton equation, valid while the smaller space is stable: one tau_1
    # at a time in a loop, so that a long chain of them does not recurse
    factor = 1
    while 1 in exps and len(exps) > 1:
        i = exps.index(1)
        exps = exps[:i] + exps[i + 1 :]
        factor *= 2 * g - 2 + len(exps)
    if len(exps) < n:
        return factor * correlator(g, exps)
    if exps == (1,):
        return TAU1_GENUS1
    if exps[-1] == 0:
        # string equation, one tau_0 at a time in a loop: each lowered
        # multiset (sorted descending) with its count, tau_{-1} terms dropped
        terms = {exps: 1}
        for _ in range(exps.count(0)):
            lowered: dict[tuple[int, ...], int] = {}
            for s, count in terms.items():
                rest = s[:-1]
                for j, aj in enumerate(rest):
                    if aj:
                        t = tuple(sorted(rest[:j] + (aj - 1,) + rest[j + 1 :], reverse=True))
                        lowered[t] = lowered.get(t, 0) + count
            terms = lowered
        return sum((count * correlator(g, s) for s, count in terms.items()), Fraction(0))
    return _virasoro_step(g, exps)


def _virasoro_step(g: int, exps: tuple[int, ...]) -> Fraction:
    """One DVV (Virasoro) step on the smallest index k + 1 = exps[-1] >= 2,
    with S the other indices:

      (2k+3)!! <tau_{k+1} tau_S>_g
        = sum_j (2(k+a_j)+1)!!/(2a_j-1)!! <tau_{k+a_j} tau_{S-a_j}>_g
        + 1/2 sum_{p+q=k-1} (2p+1)!!(2q+1)!! [<tau_p tau_q tau_S>_{g-1}
          + sum_{g1+g2=g, I+J=S} <tau_p tau_I>_{g1} <tau_q tau_J>_{g2}].

    I runs over the sub-multisets of S, not its 2^|S| subsets, and the degree
    of <tau_p tau_I> fixes g1; `tests/mbar_oracles.py` keeps the subset form."""
    k = exps[-1] - 1
    rest = exps[:-1]
    total = Fraction(0)
    for j, aj in enumerate(rest):
        term = correlator(g, rest[:j] + rest[j + 1 :] + (k + aj,))
        # (2(k+a_j)+1)!! / (2a_j-1)!!, the odd numbers 2a_j+1 .. 2(k+a_j)+1
        total += term * prod(range(2 * aj + 1, 2 * (k + aj) + 2, 2))
    splits = list(sub_multisets(rest))
    half = Fraction(0)
    for p in range(0, k):
        q = k - 1 - p
        w = _double_factorial_odd(p) * _double_factorial_odd(q)
        half += w * correlator(g - 1, rest + (p, q))
        for ways, left, right in splits:
            # <tau_p tau_I>_{g1} is zero unless its degree is 3 g1 - 2 + |I|
            g1, r = divmod(sum(left) + p - len(left) + 2, 3)
            if r == 0 and 0 <= g1 <= g:
                half += w * ways * correlator(g1, left + (p,)) * correlator(g - g1, right + (q,))
    return (total + half / 2) / _double_factorial_odd(k + 1)


def integrate_psi(g: int, exponents) -> Fraction:
    """Top-degree psi integral on M_{g,n}, for every genus 0 <= g <= MAX_GENUS,
    with at most MAX_DVV_POINTS exponents >= 2 in genus >= 1."""
    exponents = tuple(int(a) for a in exponents)
    n = len(exponents)
    if g < 0:
        raise IntegralError(f"genus {g} is negative")
    if g > MAX_GENUS:
        raise IntegralError(f"genus {g} is above {MAX_GENUS}, the bound on the genus integrated")
    if n < 1 or (g == 0 and n < 3):
        raise IntegralError(f"moduli space M_{{{g},{n}}} is empty or unstable")
    if sum(exponents) != 3 * g - 3 + n:
        raise IntegralError(
            f"psi degree {sum(exponents)} is not top degree {3 * g - 3 + n}"
        )
    dvv_points = sum(a >= 2 for a in exponents)
    if g >= 1 and dvv_points > MAX_DVV_POINTS:
        raise IntegralError(f"{dvv_points} points of exponent >= 2 is above {MAX_DVV_POINTS}, "
                            "the bound on the points a DVV step sums over")
    try:
        return correlator(g, exponents)
    except RecursionError:
        raise IntegralError(
            f"the recursion for genus {g} with {n} points is too deep to evaluate"
        ) from None


@lru_cache(maxsize=None)
def integrate_psi_kappa(
    g: int, psi_exponents: tuple[int, ...], kappa_indices: tuple[int, ...]
) -> Fraction:
    """Integral of a psi monomial times kappa_{b_1}...kappa_{b_m} on M_{g,n}.

    Kappa classes are in the marked-point (log-canonical) convention, so
    kappa_b = pi_*(psi_{n+1}^{b+1}); pulling one kappa up at a time gives
    the standard inclusion-exclusion over subsets of the remaining ones,
    summed here over their sub-multisets; `tests/mbar_oracles.py` keeps the
    subset form.
    """
    if not kappa_indices:
        return correlator(g, psi_exponents)
    if any(b < 1 for b in kappa_indices):
        raise IntegralError("kappa indices must be >= 1 (kappa_0 is a constant)")
    b0 = kappa_indices[0]
    rest = kappa_indices[1:]
    total = Fraction(0)
    for ways, chosen, remaining in sub_multisets(rest):
        sign = -ways if len(chosen) % 2 else ways
        total += sign * integrate_psi_kappa(
            g, psi_exponents + (b0 + 1 + sum(chosen),), remaining
        )
    return total


# ---------------------------------------------------------------------------
# decorated strata


class Decoration(NamedTuple):
    """psi/kappa decoration of a stable graph.

    psi_leg[i] is the exponent at leg i, psi_half[h] at half-edge h;
    kappa[v] is a tuple of (index, exponent) pairs at vertex v.
    """

    psi_leg: tuple[int, ...]
    psi_half: tuple[int, ...]
    kappa: tuple[tuple[tuple[int, int], ...], ...]

    @staticmethod
    def trivial(graph: StableGraph) -> "Decoration":
        return Decoration(
            tuple([0] * graph.n_legs),
            tuple([0] * graph.n_half_edges),
            tuple([()] * graph.n_vertices),
        )

    def degree(self) -> int:
        return (
            sum(self.psi_leg)
            + sum(self.psi_half)
            + sum(i * e for v in self.kappa for i, e in v)
        )

    def with_psi_leg(self, i: int, add: int) -> "Decoration":
        leg = list(self.psi_leg)
        leg[i] += add
        return Decoration(tuple(leg), self.psi_half, self.kappa)

    def with_psi_half(self, h: int, add: int) -> "Decoration":
        half = list(self.psi_half)
        half[h] += add
        return Decoration(self.psi_leg, tuple(half), self.kappa)

    def with_kappa(self, v: int, index: int, add: int) -> "Decoration":
        kappas = [dict(kv) for kv in self.kappa]
        kappas[v][index] = kappas[v].get(index, 0) + add
        return Decoration(
            self.psi_leg,
            self.psi_half,
            tuple(tuple(sorted(kv.items())) for kv in kappas),
        )

    def to_json(self) -> dict:
        return {
            "psi_legs": {str(i + 1): e for i, e in enumerate(self.psi_leg) if e},
            "psi_half_edges": {str(h): e for h, e in enumerate(self.psi_half) if e},
            "kappa": [
                {str(i): e for i, e in kv} for kv in self.kappa
            ],
        }


class StratumClass:
    """Formal rational combination of decorated boundary pushforwards.

    Terms are (coefficient, graph, decoration); the class is the sum of the
    pushforwards of the decorations along the graphs' boundary maps, taken
    as written (no automorphism division is baked in).
    """

    __slots__ = ("genus", "n_legs", "terms")

    def __init__(
        self,
        genus: int,
        n_legs: int,
        terms: tuple[tuple[Fraction, StableGraph, Decoration], ...],
    ) -> None:
        for _, graph, _ in terms:
            if graph.genus() != genus or graph.n_legs != n_legs:
                raise GraphError("term does not live on the ambient space")
        self.genus = genus
        self.n_legs = n_legs
        self.terms = terms

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "legs": self.n_legs,
            "terms": [
                {
                    "coefficient": rat_to_str(c),
                    "graph": graph.to_json(),
                    "decoration": dec.to_json(),
                }
                for c, graph, dec in self.terms
            ],
        }


def pullback_by_boundary(
    cls: StratumClass, graph: StableGraph
) -> list[tuple[Fraction, Decoration]]:
    """Pull a sum of pure psi/kappa monomials back to the stratum of `graph`.

    psi_i is routed to the vertex carrying leg i; kappa_i becomes the sum
    over vertices, expanded distributively.  The result is a list of
    (coefficient, decoration-on-graph) pairs.
    """
    out: list[tuple[Fraction, Decoration]] = []
    for coeff, term_graph, dec in cls.terms:
        if term_graph.n_edges != 0:
            raise IntegralError(
                "nested strata cannot be pulled back directly; "
                "intersect boundary classes first"
            )
        if any(e for e in dec.psi_half):
            raise IntegralError("pure monomials have no half-edge decorations")
        partials = [(coeff, Decoration.trivial(graph))]
        for i, e in enumerate(dec.psi_leg):
            if e:
                partials = [(c, d.with_psi_leg(i, e)) for c, d in partials]
        for kv in dec.kappa:
            for index, e in kv:
                for _ in range(e):
                    partials = [
                        (c, d.with_kappa(v, index, 1))
                        for c, d in partials
                        for v in range(graph.n_vertices)
                    ]
        out.extend(partials)
    return out


def boundary_intersection_pushforward(a: StableGraph, b: StableGraph) -> StratumClass:
    """xi_A^* (xi_B)_* (1), pushed all the way to M_{g,n}, decorations expanded.

    Each generic (A,B)-graph pushes forward the product over its excess
    (common) edges (h, h') of (-psi_h - psi_{h'}), expanded by `_expand_excess`.
    """
    from covercalc.graphs import enumerate_generic_AB

    g, n = a.genus(), a.n_legs
    terms = []
    for triple in enumerate_generic_AB(a, b):
        gamma = triple.gamma
        for coeff, dec in _expand_excess(gamma, triple.common_edges()):
            terms.append((coeff, gamma, dec))
    return StratumClass(g, n, tuple(terms))


def _expand_excess(gamma: StableGraph, excess: tuple[tuple[int, int], ...]):
    partials = [(Fraction(1), Decoration.trivial(gamma))]
    for h, hp in excess:
        nxt = []
        for coeff, dec in partials:
            nxt.append((-coeff, dec.with_psi_half(h, 1)))
            nxt.append((-coeff, dec.with_psi_half(hp, 1)))
        partials = nxt
    return partials


def integrate_stratum_class(cls: StratumClass) -> Fraction:
    """Integrate a top-codimension StratumClass over M_{g,n}, as written.

    Each term integrates factor by factor over its stratum, every vertex
    through `integrate_psi_kappa`, at any genus; kappa classes are converted
    through forgetful pushforwards.
    """
    dim = 3 * cls.genus - 3 + cls.n_legs
    total = Fraction(0)
    for coeff, graph, dec in cls.terms:
        codim = graph.n_edges + dec.degree()
        if codim != dim:
            raise IntegralError(
                f"term has codimension {codim}, not top degree {dim}"
            )
        total += coeff * _integrate_term(graph, dec)
    return total


def _integrate_term(graph: StableGraph, dec: Decoration) -> Fraction:
    value = Fraction(1)
    for v in range(graph.n_vertices):
        gv = graph.genera[v]
        psi = []
        for kind, idx in graph.vertex_points(v):
            psi.append(dec.psi_leg[idx] if kind == "leg" else dec.psi_half[idx])
        kappas = tuple(
            sorted(itertools.chain.from_iterable([i] * e for i, e in dec.kappa[v]))
        )
        nv = len(psi)
        if sum(psi) + sum(kappas) != 3 * gv - 3 + nv:
            return Fraction(0)
        factor = integrate_psi_kappa(gv, tuple(psi), kappas)
        if factor == 0:
            return Fraction(0)
        value *= factor
    return value
