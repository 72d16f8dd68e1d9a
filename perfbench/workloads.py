"""Seeded job lists for the three workloads.

A job is one CLI call: an argv, the input files it reads, the exit code it
must end with, and what its stdout must show.  Each workload's round is
stratified: every round holds the same classes of job, and the seed picks
the concrete inputs inside each class, so runs with different seeds do the
same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import inputs as ib

# The end-to-end metrics kind1_s..kind3_s are the total time of one job kind;
# which kind fills each slot depends on the workload.
SLOTS = {
    "qseries": ("delliptic-qmod", "delliptic-ledger", "qmod-check"),
    "strata": ("intersect-boundary-deep", "intersect-boundary-shallow", "integrate"),
    "covers": ("intersect-ggraph", "hurwitz-count", "pullback"),
}

# Moduli spaces of the strata workload, with the largest |E_A|+|E_B| kept.
# Larger budgets take 2-3 s to over 30 s a pair at the seed commit, which
# the run's time does not afford.
STRATA_SPACES = {(2, 2): 6, (3, 0): 6, (3, 1): 6, (2, 3): 5, (2, 4): 4, (1, 5): 3}
# Left out as well: 1+3 edges on M_{2,4}, whose cost swings 1.4-3.7 s with the
# drawn pair and would swamp the run.
STRATA_SKIP = {(2, 4, 1, 3)}
# Strata are drawn among graphs with at most this many automorphisms; the
# covers workload is the one that exercises highly symmetric graphs.
STRATA_MAX_AUT = 2

# G-graph templates of the covers workload, each intersected with a second
# copy of itself, with the number of intersection terms, which relabeling
# does not change.  Left out: Z/4 and Z/3 polygons
# with g0 = 1 and legs (over 5 minutes), the Z/5 polygon (12 s), the Z/2
# swapped pair with h = 3 (5 s) and the Z/2 polygon with g0 = 2 and legs
# (2.5 s), for the run's time.
GGRAPH_PAIRS = [
    ("z2-swapped-pair h=1", lambda: ib.z2_swapped_pair(1), 2),
    ("z2-swapped-pair h=2", lambda: ib.z2_swapped_pair(2), 2),
    ("z2-loop-orbit gamma=1", lambda: ib.z2_loop_orbit(1), 8),
    ("z2-loop-orbit gamma=3", lambda: ib.z2_loop_orbit(3), 21),
    ("polygon m=2 g0=0", lambda: ib.polygon(2, 0, True), 2),
    ("polygon m=2 g0=1 legs", lambda: ib.polygon(2, 1, True), 6),
    ("polygon m=2 g0=1", lambda: ib.polygon(2, 1, False), 4),
    ("polygon m=2 g0=2", lambda: ib.polygon(2, 2, False), 8),
    ("polygon m=3 g0=0", lambda: ib.polygon(3, 0, True), 1),
    ("polygon m=3 g0=1", lambda: ib.polygon(3, 1, False), 3),
    ("polygon m=4 g0=0", lambda: ib.polygon(4, 0, True), 1),
    ("z2-fixed-edge 2,2", lambda: ib.z2_fixed_edge(2, 2), 1),
    ("z2-fixed-edge 2,4", lambda: ib.z2_fixed_edge(2, 4), 1),
    ("z3-fixed-edge 3,3", lambda: ib.z3_fixed_edge(3, 3), 1),
    ("z3-fixed-edge 3,6", lambda: ib.z3_fixed_edge(3, 6), 1),
]


@dataclass
class Job:
    id: str
    kind: str
    argv: list
    files: dict = field(default_factory=dict)
    expect_exit: int = 0
    expect: dict = field(default_factory=dict)
    malformed: bool = False


class _Builder:
    def __init__(self):
        self.jobs = []

    def add(self, kind, argv, files=None, expect_exit=0, malformed=False, **expect):
        job_id = f"{len(self.jobs):03d}-{kind}"
        names = {}
        for key, payload in (files or {}).items():
            names[key] = f"{job_id}-{key}.json"
        argv = [names.get(a[1:], a) if a.startswith("@") else a for a in argv]
        self.jobs.append(Job(
            job_id, kind, argv,
            {names[k]: v if isinstance(v, str) else json.dumps(v)
             for k, v in (files or {}).items()},
            expect_exit, expect, malformed))


# ---------------------------------------------------------------------------
# malformed inputs, in every workload


def _malformed(b: _Builder):
    sep = {"vertex_genera": [1, 1], "half_edge_vertex": [0, 1],
           "involution_pairs": [[0, 1]], "legs": []}
    bad_pairs = dict(sep, involution_pairs=[[0, 5]])
    b.add("intersect-boundary", ["intersect-boundary", "--a", "@a", "--b", "@b"],
          {"a": bad_pairs, "b": sep}, expect_exit=2, malformed=True)
    b.add("pullback", ["pullback", "@in"],
          {"in": {"kind": "corestriction", "cls": "psi",
                  "group": ib.group_json(4, ib.sym_gens(4)),
                  "normal": [ib.perm_json(g) for g in ib.v4_gens()],
                  "h": [5, 1, 2, 3]}}, expect_exit=2, malformed=True)
    b.add("qmod-check", ["qmod-check", "--input", "@in"],
          {"in": {"order": 40, "coefficients": ["0/0"] + ["1"] * 40}},
          expect_exit=2, malformed=True)
    b.add("qmod-check", ["qmod-check", "--input", "@in"],
          {"in": {"order": 10, "coefficients": ["1"] * 11}}, expect_exit=2, malformed=True)
    b.add("delliptic", ["delliptic", "--dmax", "6", "--qmod"], expect_exit=2, malformed=True)
    b.add("hurwitz-count", ["hurwitz-count", "--degree", "4", "--types", "[[3],[2,2],[5]]"],
          expect_exit=2, malformed=True)
    b.add("integrate", ["integrate", "--genus", "0", "--exponents", "2,0,0"],
          expect_exit=2, malformed=True)
    bad_space = ib.z2_swapped_pair(1).to_json()
    bad_space["space"]["genus"] = 3
    b.add("validate-ggraph", ["validate-ggraph", "@in"], {"in": bad_space},
          expect_exit=2, malformed=True)
    b.add("intersect-ggraph", ["intersect-ggraph", "--a", "@a", "--b", "@b"],
          {"a": ib.z2_swapped_pair(1).to_json(), "b": ib.z2_swapped_pair(2).to_json()},
          expect_exit=2, malformed=True)


# ---------------------------------------------------------------------------
# qseries


def _qmod_series(rng, weight):
    """A random rational combination of E2^a E4^b E6^c, and its fit sizes."""
    monos = ib.monomials(weight)
    fit, holdout = 40, 30           # fixed, so the solve's size depends on W alone
    order = fit + holdout - 1
    # Every monomial gets a nonzero coefficient, and the denominators are a
    # shuffle of 1..9 repeated: the exact solve's cost follows the size of
    # the fractions, which then does not depend on the seed.
    denominators = [1 + i % 9 for i in range(len(monos))]
    rng.shuffle(denominators)
    coeffs = {mono: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), den)
              for mono, den in zip(monos, denominators)}
    series = [Fraction(0)] * (order + 1)
    for mono, c in coeffs.items():
        for k, x in enumerate(ib.monomial(*mono, order)):
            series[k] += c * x
    return series, fit, holdout, {ib.monomial_name(*m): ib.frac_str(c)
                                  for m, c in coeffs.items()}


def _qseries(b: _Builder, rng):
    k = rng.randrange(3)
    for dmax in rng.sample([37 + k, 42 - k], 2):
        b.add("delliptic-qmod", ["delliptic", "--dmax", str(dmax), "--series", "--qmod"],
              dmax=dmax, qmod=True)
    for dmax in rng.sample(range(12, 21), 9):
        b.add("delliptic-ledger", ["delliptic", "--dmax", str(dmax), "--ledger"], dmax=dmax)
    weights = list(range(8, 15))
    parity = rng.randrange(2)
    perturbed = {w for i, w in enumerate(weights) if i % 2 == parity}
    rng.shuffle(weights)
    for weight in weights:
        series, fit, holdout, coeffs = _qmod_series(rng, weight)
        if weight in perturbed:
            series[rng.randrange(fit, fit + holdout)] += ib.random_rational(rng)
        payload = {"order": len(series) - 1, "coefficients": [ib.frac_str(c) for c in series]}
        b.add("qmod-check",
              ["qmod-check", "--weight", str(weight), "--fit", str(fit),
               "--holdout", str(holdout), "--input", "@in"],
              {"in": payload}, member=weight not in perturbed,
              coefficients=None if weight in perturbed else coeffs)


# ---------------------------------------------------------------------------
# strata


def _integrate_exponents(rng, g, n):
    total = 3 * g - 3 + n
    exps = [0] * n
    for _ in range(total):
        exps[rng.randrange(n)] += 1
    return exps


def _strata(b: _Builder, rng):
    for (g, n), budget in STRATA_SPACES.items():
        graphs = {e: [x for x in found if ib.automorphism_count(x) <= STRATA_MAX_AUT]
                  for e, found in ib.stable_graphs(g, n, 3).items()}
        for ea in (1, 2, 3):
            for eb in range(ea, 4):
                if ea + eb > budget or (g, n, ea, eb) in STRATA_SKIP:
                    continue
                pair = [ib.relabel_graph(rng.choice(graphs[e]), rng)[0] for e in (ea, eb)]
                rng.shuffle(pair)
                kind = "intersect-boundary-" + ("deep" if ea + eb >= 4 else "shallow")
                b.add(kind, ["intersect-boundary", "--a", "@a", "--b", "@b"],
                      {"a": ib.graph_json(pair[0]), "b": ib.graph_json(pair[1])},
                      genus=g, legs=n, stratum_edges=[ea, eb])
    for g in (0, 0, 1, 1):
        n = rng.randint(12, 20)
        exps = _integrate_exponents(rng, g, n)
        b.add("integrate", ["integrate", "--genus", str(g),
                            "--exponents", ",".join(map(str, exps))],
              value=ib.frac_str(psi_integral(g, exps)))


def psi_integral(g, exps):
    """Closed forms for top psi integrals in genus 0 and 1."""
    n = len(exps)
    multinomial = factorial(sum(exps))
    for a in exps:
        multinomial //= factorial(a)
    if g == 0:
        return Fraction(multinomial)
    # Dijkgraaf: <prod tau_a>_1 = multinomial(n; a) / 24 *
    #            (1 - sum_{i>=2} (i-2)!(n-i)!/n! e_i(a))
    elem = [1] + [0] * n
    for a in exps:
        for i in range(n, 0, -1):
            elem[i] += elem[i - 1] * a
    corr = sum(Fraction(factorial(i - 2) * factorial(n - i), factorial(n)) * elem[i]
               for i in range(2, n + 1))
    return Fraction(multinomial, 24) * (1 - corr)


# ---------------------------------------------------------------------------
# covers


# Genus-0 branch data with 0.3-0.45 s of enumeration at the seed commit.  The
# seed reorders the middle branch points, which the count does not depend
# on; the first and last point, which set the enumeration's cost, stay put.
HURWITZ_SHAPES = [
    (5, [[3, 2], [4, 1], [5], [2, 1, 1, 1], [4, 1]]),
    (5, [[3, 1, 1], [4, 1], [4, 1], [2, 2, 1], [3, 1, 1]]),
    (6, [[3, 2, 1], [4, 1, 1], [3, 2, 1], [3, 2, 1]]),
    (6, [[2, 2, 1, 1], [2, 2, 2], [2, 2, 2], [3, 1, 1, 1], [4, 2]]),
    (7, [[3, 2, 2], [3, 2, 2], [3, 1, 1, 1, 1], [5, 1, 1]]),
    (7, [[4, 1, 1, 1], [2, 1, 1, 1, 1, 1], [4, 3], [6, 1]]),
]


def _covers(b: _Builder, rng):
    for label, make, terms in GGRAPH_PAIRS:
        gg = make()
        b.add("intersect-ggraph", ["intersect-ggraph", "--a", "@a", "--b", "@b"],
              {"a": gg.relabeled(rng).to_json(), "b": gg.relabeled(rng).to_json()},
              template=label, term_count=terms)
    valid = [ib.z2_swapped_pair(rng.randint(1, 3)), ib.z2_loop_orbit(rng.choice([1, 3])),
             ib.polygon(rng.randint(2, 4), 0, True), ib.z3_fixed_edge(3, 3 * rng.randint(1, 2))]
    for gg in valid:
        b.add("validate-ggraph", ["validate-ggraph", "@in"],
              {"in": gg.relabeled(rng).to_json()}, ok=True)
    for kind in ib.MUTATION_KINDS:
        b.add("validate-ggraph", ["validate-ggraph", "@in"],
              {"in": ib.mutate(kind, rng).relabeled(rng).to_json()},
              expect_exit=2, ok=False, label=kind)
    for d in (5, 6):
        # [d] first: its small centralizer keeps the enumeration cheap
        types = [[d]] + [[2] + [1] * (d - 2)] * (d - 1)
        b.add("hurwitz-count", ["hurwitz-count", "--degree", str(d), "--types",
                                json.dumps(types)], count=str(d ** (d - 3)))
    for d, shape in HURWITZ_SHAPES:
        middle = shape[1:-1]
        rng.shuffle(middle)
        types = [shape[0]] + middle + [shape[-1]]
        b.add("hurwitz-count", ["hurwitz-count", "--degree", str(d), "--types",
                                json.dumps(types)])
    for degree, normal, cls in [(4, ib.v4_gens(), "psi"), (4, ib.alt_gens(4), "psi"),
                                (5, ib.alt_gens(5), "psi"), (5, ib.alt_gens(5), "kappa"),
                                (6, ib.alt_gens(6), "psi")]:
        _pullback(b, rng, "corestriction", degree, normal, cls)
    for degree, cls in [(4, "psi"), (5, "psi"), (6, "psi"), (6, "kappa")]:
        _pullback(b, rng, "forgetful", degree, None, cls)


def _pullback(b, rng, kind, degree, normal, cls):
    gens = ib.sym_gens(degree)
    elements = ib.closure(gens, degree)
    order = len(elements)
    payload = {"kind": kind, "cls": cls, "group": ib.group_json(degree, gens)}
    if kind == "corestriction":
        payload["normal"] = [ib.perm_json(g) for g in normal]
        members = set(ib.closure(normal, degree))
        if payload["cls"] == "kappa":
            expect = [("kappa", Fraction(1, len(members)))]
        else:
            h = rng.choice(elements)
            payload["h"] = ib.perm_json(h)
            k, p = 1, h
            while p not in members:
                p = ib.compose(h, p)
                k += 1
            expect = [("psi", Fraction(k, ib.perm_order(h)))]
    elif payload["cls"] == "kappa":
        payload["index"] = rng.randint(1, 4)
        expect = [("kappa", Fraction(1)), ("psi-new-point-power", Fraction(-order))]
    else:
        h = rng.choice(elements)
        payload["h"] = ib.perm_json(h)
        expect = [("psi", Fraction(1))] + [("section-divisor", Fraction(-1))] * (
            order // ib.perm_order(h))
    b.add("pullback", ["pullback", "@in"], {"in": payload}, map=kind,
          terms=[[cls, ib.frac_str(c)] for cls, c in expect])


# ---------------------------------------------------------------------------


GENERATORS = {"qseries": _qseries, "strata": _strata, "covers": _covers}


def generate(workload: str, seed: int, rounds: int = 1) -> list[Job]:
    """The job list for one run: `rounds` rounds plus the malformed inputs."""
    if workload not in GENERATORS:
        raise KeyError(workload)
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder()
    for _ in range(rounds):
        GENERATORS[workload](b, rng)
    _malformed(b)
    order = list(range(len(b.jobs)))
    rng.shuffle(order)
    return [b.jobs[i] for i in order]


def slot_of(workload: str, job: Job):
    kinds = SLOTS[workload]
    if job.malformed or job.kind not in kinds:
        return None
    return f"kind{kinds.index(job.kind) + 1}"
