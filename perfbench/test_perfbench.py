"""Self-tests of the benchmark:  python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import inputs as ib
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_jobs(workload):
    first = [dataclasses.asdict(j) for j in workloads.generate(workload, 7)]
    again = [dataclasses.asdict(j) for j in workloads.generate(workload, 7)]
    other = [dataclasses.asdict(j) for j in workloads.generate(workload, 8)]
    assert first == again
    assert first != other
    assert sum(j["malformed"] for j in first) == 9


def test_every_slot_has_jobs():
    for workload, kinds in workloads.SLOTS.items():
        present = {j.kind for j in workloads.generate(workload, 1) if not j.malformed}
        assert set(kinds) <= present


def _in_child(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=Path(__file__).parent,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_wrappers_cover_reexported_bindings():
    out = _in_child("""
import json, tracer
t = tracer.Tracer()
tracer.install(t)
import covercalc.graphs as g, covercalc.mbar as m, covercalc.gcover as c
sep = g.StableGraph((1, 1), (0, 1), (1, 0), ())
m.enumerate_generic_AB(sep, sep)
c.enumerate_generic_AB(sep, sep)
print(json.dumps({
    "same": m.enumerate_generic_AB is g.enumerate_generic_AB is c.enumerate_generic_AB,
    "wrapped": hasattr(m.enumerate_generic_AB, "__wrapped__"),
    "calls": t.calls["graphs.enumerate_generic_AB"],
    "triples": t.counters["graphs.generic_ab.triples"],
}))
""")
    assert out["same"] and out["wrapped"]
    assert out["calls"] == 2
    assert out["triples"] > 0


def test_lru_cache_hits_under_wrapping():
    out = _in_child("""
import json, tracer
t = tracer.Tracer()
caches = tracer.install(t)
import covercalc.graphs as g
before = g.enumerate_stable_graphs.__wrapped__.cache_info()
first = g.enumerate_stable_graphs(2, 2, 2)
second = g.enumerate_stable_graphs(2, 2, 2)
after = caches["graphs.enumerate_stable_graphs"].cache_info()
print(json.dumps({"same": first is second, "hits": after.hits - before.hits,
                  "calls": t.calls["graphs.enumerate_stable_graphs"]}))
""")
    assert out["same"]
    assert out["hits"] >= 1
    assert out["calls"] >= 2


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("graphs.f", 1.0, 4.0, 0),
        ("groups.compose", 2.0, 3.0, 1),
        ("mbar.g", 5.0, 9.0, 0),
        ("groups.compose", 6.0, 6.5, 3),
        ("groups.compose", 6.25, 7.0, 3),   # overlaps its sibling: counted once
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"cli": 3.0, "graphs": 2.0, "groups": 1.0 + 0.5 + 0.75,
                                 "mbar": 3.0})


def test_tail_has_ten_samples_above():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0


def test_stable_graph_counts_match_the_literature():
    graphs = ib.stable_graphs(3, 0, 6)
    assert sum(len(v) for v in graphs.values()) == 42       # strata of M_3-bar
    assert [len(ib.stable_graphs(2, 0, 3)[e]) for e in range(4)] == [1, 2, 2, 2]


def test_psi_integral_closed_forms():
    assert workloads.psi_integral(0, [0, 0, 0]) == 1
    assert workloads.psi_integral(0, [1, 1, 0, 0, 0]) == 2
    assert workloads.psi_integral(1, [1]) == Fraction(1, 24)
    assert workloads.psi_integral(1, [1, 1]) == Fraction(1, 24)
    assert workloads.psi_integral(1, [2, 0]) == Fraction(1, 24)


def test_pairing_series_identities():
    order = 30
    for table, closed in ((ib.DELTA00_SERIES, ib.delta00_closed_form),
                          (ib.DELTA01_SERIES, ib.delta01_closed_form)):
        total = [Fraction(0)] * (order + 1)
        for (a, b, c) in ib.monomials(4):
            coeff = table.get(ib.monomial_name(a, b, c))
            if coeff:
                for k, x in enumerate(ib.monomial(a, b, c, order)):
                    total[k] += Fraction(coeff) * x
        want = [Fraction(0), Fraction(0)] + [
            Fraction(closed(d), factorial(d - 2) ** 2) for d in range(2, order + 1)]
        assert total == want


def test_reported_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    layer = run.per_layer(tmp_path, [], [], 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in layer.items()}
