"""Input builders for the benchmark, written without importing covercalc.

Everything here produces plain JSON-ready data: permutation groups,
stable graphs of small moduli spaces, admissible G-graph templates,
Eisenstein series.  Keeping these independent of the program means a
refactor of the program cannot change what the benchmark feeds it.

Permutations are 0-based tuples; ``compose(a, b)`` is a after b, the
program's convention.  JSON permutations are 1-based, as the CLI reads them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

# ---------------------------------------------------------------------------
# permutations and groups


def compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def perm_order(a):
    e = tuple(range(len(a)))
    k, p = 1, a
    while p != e:
        p = compose(a, p)
        k += 1
    return k


def closure(gens, degree):
    """All elements of the group generated by gens, sorted."""
    e = tuple(range(degree))
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = compose(g, a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


def cycle_gen(n):
    return tuple(list(range(1, n)) + [0])


def sym_gens(n):
    """The generators the program's symmetric_group(n) uses."""
    return [tuple([1, 0] + list(range(2, n))), cycle_gen(n)]


def alt_gens(n):
    """3-cycles (0 1 k), which generate A_n for n >= 3."""
    out = []
    for k in range(2, n):
        p = list(range(n))
        p[0], p[1], p[k] = 1, k, 0
        out.append(tuple(p))
    return out


def v4_gens():
    return [(1, 0, 3, 2), (2, 3, 0, 1)]


def perm_json(p):
    return [i + 1 for i in p]


def group_json(degree, gens):
    return {"degree": degree, "generators": [perm_json(g) for g in gens]}


# ---------------------------------------------------------------------------
# stable graphs: (genera, half_edge_vertex, edges, leg_vertex)


def _canonical(genera, hv, edges, legs):
    nv = len(genera)
    best = None
    for sigma in itertools.permutations(range(nv)):
        g = [0] * nv
        for v, gv in enumerate(genera):
            g[sigma[v]] = gv
        em = sorted(tuple(sorted((sigma[hv[h]], sigma[hv[hp]]))) for h, hp in edges)
        key = (tuple(g), tuple(em), tuple(sigma[v] for v in legs))
        if best is None or key < best:
            best = key
    return best


def _stable(genera, hv, legs):
    valence = [0] * len(genera)
    for v in list(hv) + list(legs):
        valence[v] += 1
    return all(2 * g - 2 + k > 0 for g, k in zip(genera, valence))


def _degenerations(graph):
    genera, hv, edges, legs = graph
    nh = len(hv)
    for v in range(len(genera)):
        if genera[v] >= 1:
            g = list(genera)
            g[v] -= 1
            yield (tuple(g), hv + (v, v), edges + ((nh, nh + 1),), legs)
        items = [("h", h) for h in range(nh) if hv[h] == v]
        items += [("l", i) for i in range(len(legs)) if legs[i] == v]
        w = len(genera)
        for g1 in range(genera[v] + 1):
            for mask in range(1 << len(items)):
                g = list(genera) + [genera[v] - g1]
                g[v] = g1
                new_hv, new_legs = list(hv), list(legs)
                for i, (kind, idx) in enumerate(items):
                    if mask >> i & 1:
                        if kind == "h":
                            new_hv[idx] = w
                        else:
                            new_legs[idx] = w
                yield (tuple(g), tuple(new_hv) + (v, w), edges + ((nh, nh + 1),),
                       tuple(new_legs))


def stable_graphs(g, n, max_edges):
    """Stable graphs of genus g with n legs, by edge count, up to isomorphism."""
    start = ((g,), (), (), (0,) * n)
    if not _stable(*start[:2], start[3]):
        return {0: []}
    by_edges = {0: [start]}
    frontier = [start]
    for e in range(1, max_edges + 1):
        seen = {}
        for graph in frontier:
            for d in _degenerations(graph):
                if _stable(d[0], d[1], d[3]):
                    seen.setdefault(_canonical(*d), d)
        frontier = [seen[k] for k in sorted(seen)]
        by_edges[e] = frontier
    return by_edges


def automorphism_count(graph):
    """Order of the automorphism group (legs fixed): vertex symmetries of the
    multigraph times the half-edge symmetries over each of them."""
    genera, hv, edges, legs = graph
    pairs = [tuple(sorted((hv[h], hv[hp]))) for h, hp in edges]
    target = (tuple(genera), sorted(pairs), tuple(legs))
    vertex_syms = 0
    for sigma in itertools.permutations(range(len(genera))):
        g = [0] * len(genera)
        for v, gv in enumerate(genera):
            g[sigma[v]] = gv
        moved = sorted(tuple(sorted((sigma[a], sigma[b]))) for a, b in pairs)
        if (tuple(g), moved, tuple(sigma[v] for v in legs)) == target:
            vertex_syms += 1
    lifts = 1
    for pair in set(pairs):
        mult = pairs.count(pair)
        lifts *= factorial(mult) * (2 ** mult if pair[0] == pair[1] else 1)
    return vertex_syms * lifts


def relabel_graph(graph, rng):
    """An isomorphic copy with vertices and half-edges renamed (legs kept)."""
    genera, hv, edges, legs = graph
    sigma = list(range(len(genera)))
    tau = list(range(len(hv)))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    new_genera = [0] * len(genera)
    for v, gv in enumerate(genera):
        new_genera[sigma[v]] = gv
    new_hv = [0] * len(hv)
    for h, v in enumerate(hv):
        new_hv[tau[h]] = sigma[v]
    new_edges = tuple(tuple(sorted((tau[h], tau[hp]))) for h, hp in edges)
    return (tuple(new_genera), tuple(new_hv), tuple(sorted(new_edges)),
            tuple(sigma[v] for v in legs)), sigma, tau


def graph_json(graph):
    genera, hv, edges, legs = graph
    return {
        "vertex_genera": list(genera),
        "half_edge_vertex": list(hv),
        "involution_pairs": [list(e) for e in sorted(edges)],
        "legs": [[i + 1, v] for i, v in enumerate(legs)],
    }


# ---------------------------------------------------------------------------
# admissible G-graph templates (cyclic groups), as the CLI reads them


class GGraph:
    """A G-graph with a cyclic group Z/m: one generator c."""

    def __init__(self, genus, m, xi, graph, act, mon_half, mon_leg):
        self.genus, self.m, self.xi = genus, m, xi
        self.graph = graph                     # (genera, hv, edges, legs)
        self.act = act                         # (vperm, hperm, lperm) of c
        self.mon_half, self.mon_leg = mon_half, mon_leg

    def space_json(self):
        return {"genus": self.genus, "group": group_json(self.m, [cycle_gen(self.m)]),
                "xi": [perm_json(h) for h in self.xi]}

    def to_json(self):
        v, h, l = self.act
        return {
            "space": self.space_json(),
            "graph": graph_json(self.graph),
            "action_generators": [{"vertices": list(v), "half_edges": list(h),
                                   "legs": list(l)}],
            "monodromy_half_edges": [perm_json(p) for p in self.mon_half],
            "monodromy_legs": [perm_json(p) for p in self.mon_leg],
        }

    def relabeled(self, rng):
        graph, sigma, tau = relabel_graph(self.graph, rng)
        v, h, l = self.act
        new_v = [0] * len(v)
        for x, y in enumerate(v):
            new_v[sigma[x]] = sigma[y]
        new_h = [0] * len(h)
        for x, y in enumerate(h):
            new_h[tau[x]] = tau[y]
        mon = [None] * len(self.mon_half)
        for x, p in enumerate(self.mon_half):
            mon[tau[x]] = p
        return GGraph(self.genus, self.m, self.xi, graph, (tuple(new_v), tuple(new_h), l),
                      tuple(mon), self.mon_leg)


def _edges(inv):
    return tuple((h, inv[h]) for h in range(len(inv)) if h < inv[h])


def z2_swapped_pair(h):
    s, e = (1, 0), (0, 1)
    graph = ((h, h, 0), (0, 2, 1, 2), _edges((1, 0, 3, 2)), (2, 2))
    return GGraph(2 * h, 2, (s, s), graph, ((1, 0, 2), (2, 3, 0, 1), (0, 1)),
                  (e,) * 4, (s, s))


def polygon(m, g0, with_legs):
    e = tuple(range(m))
    hv, inv = [], []
    for i in range(m):
        hv.extend([i, (i + 1) % m])
        inv.extend([2 * i + 1, 2 * i])
    legs = tuple(range(m)) if with_legs else ()
    graph = (tuple([g0] * m), tuple(hv), _edges(inv), legs)
    act = (tuple((i + 1) % m for i in range(m)),
           tuple((x + 2) % (2 * m) for x in range(2 * m)),
           tuple((i + 1) % m for i in range(m)) if with_legs else ())
    return GGraph(1 + m * g0, m, (e,) if with_legs else (), graph, act,
                  (e,) * (2 * m), (e,) * len(legs))


def z2_loop_orbit(gamma):
    e = (0, 1)
    graph = ((gamma,), (0, 0, 0, 0), _edges((1, 0, 3, 2)), ())
    return GGraph(gamma + 2, 2, (), graph, ((0,), (2, 3, 0, 1), ()), (e,) * 4, ())


def z2_fixed_edge(g0, g1):
    s = (1, 0)
    graph = ((g0, g1), (0, 1), ((0, 1),), (0, 1))
    return GGraph(g0 + g1, 2, (s, s), graph, ((0, 1), (0, 1), (0, 1)), (s, s), (s, s))


def z3_fixed_edge(g0, g1):
    c = cycle_gen(3)
    c2 = compose(c, c)
    graph = ((g0, g1), (0, 1), ((0, 1),), (0, 1))
    return GGraph(g0 + g1, 3, (c, c2), graph, ((0, 1), (0, 1), (0, 1)), (c, c2), (c, c2))


def mutate(kind, rng):
    """A G-graph breaking exactly the named admissibility condition."""
    if kind == "genus":
        # vertex 0 is fixed by the action, so only the genus condition breaks
        gg = rng.choice([z2_loop_orbit(rng.choice([1, 3])), z2_fixed_edge(2, 2),
                         z3_fixed_edge(3, 3)])
        genera, hv, edges, legs = gg.graph
        gg.graph = ((genera[0] + 1,) + genera[1:], hv, edges, legs)
        return gg
    if kind == "stabilizer":
        gg = z2_loop_orbit(rng.choice([1, 3]))
        gg.mon_half = ((1, 0),) * 4
        return gg
    if kind == "edge-collapse":
        gg = z2_loop_orbit(rng.choice([1, 3]))
        genera, hv, _, legs = gg.graph
        gg.graph = (genera, hv, ((0, 2), (1, 3)), legs)
        return gg
    if kind == "balancing":
        gg = z3_fixed_edge(3 * rng.randint(1, 2), 3 * rng.randint(1, 2))
        c = gg.mon_half[0]
        gg.mon_half = (c, c)
        return gg
    raise ValueError(f"unknown mutation kind {kind!r}")


MUTATION_KINDS = ("genus", "stabilizer", "edge-collapse", "balancing")


# ---------------------------------------------------------------------------
# q-series: Eisenstein series and closed forms, in plain integers


def sigma(n, k=1):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(k, order):
    coeff, power = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}[k]
    return [1] + [coeff * sigma(n, power) for n in range(1, order + 1)]


def series_mul(a, b):
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        if a[i]:
            for j in range(n - i):
                out[i + j] += a[i] * b[j]
    return out


def monomial(a, b, c, order):
    out = [1] + [0] * order
    for k, e in ((2, a), (4, b), (6, c)):
        for _ in range(e):
            out = series_mul(out, eisenstein(k, order))
    return out


def monomials(weight_bound):
    return [(a, b, c)
            for a in range(weight_bound // 2 + 1)
            for b in range(weight_bound // 4 + 1)
            for c in range(weight_bound // 6 + 1)
            if 2 * a + 4 * b + 6 * c <= weight_bound]


def monomial_name(a, b, c):
    parts = [base if e == 1 else f"{base}^{e}"
             for base, e in (("E2", a), ("E4", b), ("E6", c)) if e]
    return "*".join(parts) if parts else "1"


def frac_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def delta00_closed_form(d):
    return 4 * factorial(d - 2) ** 2 * (d - 1) * sigma(d)


def delta01_closed_form(d):
    return 2 * factorial(d - 2) ** 2 * sum(sigma(a) * sigma(d - a) for a in range(1, d))


# The normalized pairing series in the E2, E4 basis:
#   sum 4(d-1) sigma1(d) q^d       = -(E2^2 - E4)/72 - (1 - E2)/6
#   2 (sum sigma1(d) q^d)^2        = (1 - E2)^2 / 288
DELTA00_SERIES = {"1": "-1/6", "E2": "1/6", "E2^2": "-1/72", "E4": "1/72"}
DELTA01_SERIES = {"1": "1/288", "E2": "-1/144", "E2^2": "1/288"}


def random_rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
