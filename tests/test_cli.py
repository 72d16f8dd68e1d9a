import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from closed_forms import ledger_row_json
from gg_factory import mutate, random_valid_graph
from covercalc import cli
from covercalc.cli import main
from covercalc.errors import InvariantError
from covercalc.exact import rat_to_str
from covercalc.delliptic import degree_ledger, pairing_series
from covercalc.graphs import StableGraph

REPO = Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def check_schema(name: str, payload: dict) -> None:
    with open(SCHEMAS / f"{name}.schema.json") as fh:
        schema = json.load(fh)
    jsonschema.validate(payload, schema)


def test_integrate(capsys):
    code, out = run_cli(capsys, ["integrate", "--genus", "0", "--exponents", "1,0,0,0"])
    assert code == 0
    payload = json.loads(out)
    check_schema("integrate", payload)
    assert payload["value"] == "1"


def test_integrate_rejects_bad_dimension(capsys):
    code, out = run_cli(capsys, ["integrate", "--genus", "0", "--exponents", "2,0,0"])
    assert code == 2
    check_schema("error", json.loads(out))


# <tau_{3g-2}>_g = 1/(24^g g!) (Witten) and <tau_2 tau_3>_2 = 29/5760
HIGHER_GENUS = [(g, [3 * g - 2], Fraction(1, 24**g * factorial(g))) for g in range(2, 8)]
HIGHER_GENUS.append((2, [2, 3], Fraction(29, 5760)))


@pytest.mark.parametrize("genus, exponents, value", HIGHER_GENUS)
def test_integrate_every_genus(capsys, genus, exponents, value):
    argv = ["integrate", "--genus", str(genus), "--exponents", ",".join(map(str, exponents))]
    code, out = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    check_schema("integrate", payload)
    assert payload == {"genus": genus, "exponents": exponents, "value": rat_to_str(value)}


def test_intersect_boundary(tmp_path, capsys):
    sep = StableGraph((1, 1), (0, 1), (1, 0), ())
    a = tmp_path / "a.json"
    a.write_text(json.dumps(sep.to_json()))
    code, out = run_cli(capsys, ["intersect-boundary", "--a", str(a), "--b", str(a)])
    assert code == 0
    payload = json.loads(out)
    check_schema("intersect-boundary", payload)
    assert payload["ambient"] == {"genus": 2, "legs": 0}
    assert payload["term_count"] > 0


def test_validate_ggraph_ok_and_invalid(tmp_path, capsys):
    rng = random.Random(4)
    gg = random_valid_graph(rng)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(gg.to_json()))
    code, out = run_cli(capsys, ["validate-ggraph", str(good)])
    assert code == 0
    payload = json.loads(out)
    check_schema("validate-ggraph", payload)
    assert payload["ok"] is True

    bad_gg, label = mutate("balancing", rng)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_gg.to_json()))
    code, out = run_cli(capsys, ["validate-ggraph", str(bad)])
    assert code == 2
    payload = json.loads(out)
    check_schema("validate-ggraph", payload)
    assert payload["ok"] is False
    assert any(v["label"] == label for v in payload["violations"])


def test_hurwitz_count_lemma_configuration(capsys):
    code, out = run_cli(
        capsys,
        ["hurwitz-count", "--degree", "3", "--types", "[[3],[2,1],[2,1]]"],
    )
    assert code == 0
    payload = json.loads(out)
    check_schema("hurwitz-count", payload)
    assert payload["count"] == "1"


def test_intersect_ggraph(tmp_path, capsys):
    from gg_factory import _z2_gp

    gp = _z2_gp(1)
    path = tmp_path / "gp.json"
    path.write_text(json.dumps(gp.to_json()))
    code, out = run_cli(capsys, ["intersect-ggraph", "--a", str(path), "--b", str(path)])
    assert code == 0
    payload = json.loads(out)
    check_schema("intersect-ggraph", payload)
    assert payload["term_count"] == len(payload["terms"]) > 0


def test_pullback(tmp_path, capsys):
    from covercalc.groups import cyclic_group

    z4 = cyclic_group(4)
    payload_in = {
        "kind": "corestriction",
        "cls": "psi",
        "group": z4.to_json(),
        "normal": [[3, 4, 1, 2]],
        "h": [2, 3, 4, 1],
    }
    path = tmp_path / "pullback.json"
    path.write_text(json.dumps(payload_in))
    code, out = run_cli(capsys, ["pullback", str(path)])
    assert code == 0
    payload = json.loads(out)
    check_schema("pullback", payload)
    assert payload["terms"][0]["coefficient"] == "1/2"


def test_delliptic_json_and_determinism(capsys):
    code, out1 = run_cli(capsys, ["delliptic", "--dmax", "4", "--ledger"])
    assert code == 0
    payload = json.loads(out1)
    check_schema("delliptic", payload)
    assert payload["values"]["2"]["delta00"] == "12"
    assert payload["values"]["3"]["delta00"] == "32"
    assert payload["values"]["4"]["delta00"] == "336"
    assert payload["values"]["2"]["delta01"] == "2"
    assert payload["values"]["4"]["delta01"] == "136"
    code, out2 = run_cli(capsys, ["delliptic", "--dmax", "4", "--ledger"])
    assert out1 == out2  # byte-identical across runs


def test_delliptic_human_table(capsys):
    code, out = run_cli(capsys, ["delliptic", "--dmax", "3", "--human"])
    assert code == 0
    assert "delta00" in out and "12" in out and "32" in out


def test_delliptic_human_builds_no_report_it_does_not_print(capsys):
    # --human prints only the values table; the quasimodularity report it
    # never printed used to refuse d_max = 10 (too small for fit 20 +
    # holdout 18) and exit 2
    code, table = run_cli(capsys, ["delliptic", "--dmax", "10", "--human"])
    assert code == 0
    code, out = run_cli(capsys, ["delliptic", "--dmax", "10", "--series", "--qmod", "--human"])
    assert code == 0
    assert out == table
    assert [line.split()[0] for line in out.splitlines()[2:]] == [str(d) for d in range(2, 11)]


def test_qmod_check_roundtrip(tmp_path, capsys):
    series = pairing_series([degree_ledger(d).delta01 for d in range(2, 41)])
    path = tmp_path / "series.json"
    path.write_text(json.dumps(series.to_json()))
    code, out = run_cli(
        capsys,
        ["qmod-check", "--weight", "4", "--fit", "20", "--holdout", "18",
         "--input", str(path)],
    )
    assert code == 0
    payload = json.loads(out)
    check_schema("qmod-check", payload)
    assert payload["is_member"] is True


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_cli(capsys, ["intersect-boundary", "--a", str(bad), "--b", str(bad)])
    assert code == 2
    check_schema("error", json.loads(out))


def _run_with_inputs(tmp_path, capsys, argv, files):
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    return run_cli(capsys, argv)


SEPARATING = {"vertex_genera": [1, 1], "half_edge_vertex": [0, 1],
              "involution_pairs": [[0, 1]], "legs": []}


@pytest.mark.parametrize("pairs", [[[0, 5]], [[0, -1]], [[0, 0]], [[0, 1], [1, 0]], []])
def test_intersect_boundary_rejects_bad_involution_pairs(tmp_path, capsys, pairs):
    bad = dict(SEPARATING, involution_pairs=pairs)
    code, out = _run_with_inputs(
        tmp_path, capsys, ["intersect-boundary", "--a", "@a", "--b", "@b"],
        {"a": bad, "b": SEPARATING},
    )
    assert code == 2
    check_schema("error", json.loads(out))


LEGGED = dict(SEPARATING, legs=[[1, 0]])
# Each used to print terms with exit 0 (bools and floats read as ints), exit 2
# only through a bare TypeError, or raise "too many values to unpack".
MALFORMED_GRAPHS = {
    "bool genus": dict(SEPARATING, vertex_genera=[True, 1]),
    "float leg label": dict(LEGGED, legs=[[1.0, 0]]),
    "bool leg label": dict(LEGGED, legs=[[True, 0]]),
    "bool leg vertex": dict(LEGGED, legs=[[1, False]]),
    "string genera": dict(SEPARATING, vertex_genera="11"),
    "float half-edge vertex": dict(SEPARATING, half_edge_vertex=[0.0, 1]),
    "float in a pair": dict(SEPARATING, involution_pairs=[[0.0, 1]]),
    "top-level list": [SEPARATING],
    "three-member pair": dict(SEPARATING, involution_pairs=[[0, 1, 0]]),
    "three-member leg": dict(LEGGED, legs=[[1, 0, 0]]),
}


@pytest.mark.parametrize("graph", MALFORMED_GRAPHS.values(), ids=MALFORMED_GRAPHS.keys())
def test_intersect_boundary_rejects_graphs_that_are_not_integer_lists(tmp_path, capsys, graph):
    code, out = _run_with_inputs(
        tmp_path, capsys, ["intersect-boundary", "--a", "@a", "--b", "@a"], {"a": graph},
    )
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"].startswith("GraphError")


def test_malformed_graphs_exit_2_under_python_O(tmp_path):
    runs = []
    for i, graph in enumerate(MALFORMED_GRAPHS.values()):
        path = tmp_path / f"graph{i}.json"
        path.write_text(json.dumps(graph))
        runs.append(["intersect-boundary", "--a", str(path), "--b", str(path)])
    for out, code in _run_under_python_O(runs):
        assert code == "2"
        payload = json.loads(out)
        check_schema("error", payload)
        assert payload["error"].startswith("GraphError")


def test_pullback_rejects_h_outside_the_group(tmp_path, capsys):
    s4 = {"degree": 4, "generators": [[2, 1, 3, 4], [2, 3, 4, 1]]}
    payload = {"kind": "corestriction", "cls": "psi", "group": s4,
               "normal": [[2, 1, 4, 3], [3, 4, 1, 2]], "h": [5, 1, 2, 3]}
    code, out = _run_with_inputs(tmp_path, capsys, ["pullback", "@in"], {"in": payload})
    assert code == 2
    check_schema("error", json.loads(out))


def test_qmod_check_rejects_zero_denominator(tmp_path, capsys):
    series = {"order": 40, "coefficients": ["0/0"] + ["1"] * 40}
    code, out = _run_with_inputs(
        tmp_path, capsys, ["qmod-check", "--input", "@in"], {"in": series}
    )
    assert code == 2
    check_schema("error", json.loads(out))


@pytest.mark.parametrize("path, value, error", [
    (("space", "group", "degree"), 2.7, "GroupError: group degree 2.7 is not an integer"),
    (("space", "group", "degree"), True, "GroupError: group degree True is not an integer"),
    (("space", "group", "degree"), "2", "GroupError: group degree '2' is not an integer"),
    (("space", "genus"), 2.9, "CoverError: genus 2.9 is not an integer"),
    (("space", "genus"), 2.0, "CoverError: genus 2.0 is not an integer"),
    (("space", "genus"), True, "CoverError: genus True is not an integer"),
])
def test_validate_ggraph_rejects_non_integer_degree_and_genus(
    tmp_path, capsys, path, value, error
):
    # int(...) used to truncate these, and 2.7 or 2.9 printed "ok": true
    from gg_factory import _z2_gp

    gg = _z2_gp(1).to_json()
    _set(path, value)(gg)
    code, out = _run_with_inputs(tmp_path, capsys, ["validate-ggraph", "@in"], {"in": gg})
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == error


# Group data refused before anything of the group's size is built: a large
# degree used to allocate range(degree) per generator (about 8 GB at 10^9,
# a MemoryError traceback under a memory cap, and 1 s for 10^7).
BAD_GROUPS = [
    ({"degree": 10**9}, "GroupError: not a permutation of degree 1000000000: [2, 1]"),
    ({"degree": 10**7}, "GroupError: not a permutation of degree 10000000: [2, 1]"),
    ({"degree": 0}, "GroupError: group degree 0 is not positive"),
    ({"degree": -3}, "GroupError: group degree -3 is not positive"),
    ({"generators": []}, "GroupError: a group needs a non-empty list of generators"),
]


def _ggraph_with_group(change: dict) -> dict:
    from gg_factory import _z2_gp

    gg = _z2_gp(1).to_json()
    gg["space"]["group"].update(change)
    return gg


@pytest.mark.parametrize("change, error", BAD_GROUPS)
def test_a_large_degree_or_empty_group_is_refused_before_it_is_built(
    tmp_path, capsys, change, error
):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_ggraph_with_group(change)))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["validate-ggraph", str(path)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and elapsed < 1.0 and peak < 5_000_000
    payload = json.loads(capsys.readouterr().out)
    check_schema("error", payload)
    assert payload["error"] == error


def test_a_large_degree_or_empty_group_is_refused_under_python_O(tmp_path):
    runs = []
    for i, (change, _) in enumerate(BAD_GROUPS):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(_ggraph_with_group(change)))
        runs.append(["validate-ggraph", str(path)])
    start = time.perf_counter()
    results = _run_under_python_O(runs)
    assert time.perf_counter() - start < 1.0 * len(runs)
    for (out, code), (_, error) in zip(results, BAD_GROUPS):
        assert code == "2"
        payload = json.loads(out)
        check_schema("error", payload)
        assert payload["error"] == error


@pytest.mark.parametrize("order, coefficients, error", [
    (40.0, ["1"] * 41, "SeriesError: order 40.0 is not an integer"),
    (True, ["1", "1"], "SeriesError: order True is not an integer"),
    ("40", ["1"] * 41, "SeriesError: order '40' is not an integer"),
    (1, [1, 2], "SeriesError: exact rational 1 is not a string"),
])
def test_qmod_check_rejects_non_integer_order_and_non_string_coefficients(
    tmp_path, capsys, order, coefficients, error
):
    series = {"order": order, "coefficients": coefficients}
    code, out = _run_with_inputs(
        tmp_path, capsys,
        ["qmod-check", "--weight", "0", "--fit", "1", "--holdout", "1", "--input", "@in"],
        {"in": series},
    )
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == error


@pytest.mark.parametrize("fit, holdout", [(20, -5), (10, -3)])
def test_qmod_check_rejects_a_negative_holdout(tmp_path, capsys, fit, holdout):
    # a negative holdout once read past the series (IndexError) or, with a
    # shorter fit, reported membership without checking any held-out term
    series = {"order": 14, "coefficients": ["1"] + ["0"] * 14}
    code, out = _run_with_inputs(
        tmp_path, capsys,
        ["qmod-check", "--fit", str(fit), "--holdout", str(holdout), "--input", "@in"],
        {"in": series},
    )
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == f"SeriesError: holdout length {holdout} is negative"


def test_qmod_check_rejects_a_negative_weight(tmp_path, capsys):
    # a negative weight once answered "is_member": false over an empty basis
    series = {"order": 40, "coefficients": ["1"] + ["0"] * 40}
    argv = ["qmod-check", "--weight", "-2", "--input", "@in"]
    code, out = _run_with_inputs(tmp_path, capsys, argv, {"in": series})
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == "SeriesError: weight bound -2 is negative"
    # weight 0 is the constants, and 1 is one
    code, out = _run_with_inputs(tmp_path, capsys, argv[:2] + ["0"] + argv[3:], {"in": series})
    assert code == 0
    payload = json.loads(out)
    check_schema("qmod-check", payload)
    assert payload["is_member"] is True


def test_qmod_check_refuses_a_large_weight_before_building_the_basis(tmp_path, capsys):
    # building the 234073 monomials to q^40 once took over 20 s
    series = {"order": 40, "coefficients": ["1"] + ["0"] * 40}
    start = time.perf_counter()
    code, out = _run_with_inputs(
        tmp_path, capsys, ["qmod-check", "--weight", "400", "--input", "@in"], {"in": series},
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == ("SeriesError: fit length 20 below the basis size 234073; "
                                "the solve would be underdetermined")


@pytest.mark.parametrize("weight, size", [
    (10**6, 3472295139347223),
    (10**18, 3472222222222222295138888888888889347222222222222223),
])
def test_qmod_check_refuses_a_huge_weight_at_once(tmp_path, capsys, weight, size):
    # counting the basis took 36.7 s at weight 100000 before it had a closed form
    series = {"order": 40, "coefficients": ["1"] + ["0"] * 40}
    start = time.perf_counter()
    code, out = _run_with_inputs(
        tmp_path, capsys, ["qmod-check", "--weight", str(weight), "--input", "@in"],
        {"in": series},
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == (f"SeriesError: fit length 20 below the basis size {size}; "
                                "the solve would be underdetermined")


DMAX_PAST_THE_BOUND = [
    [dmax, *human]
    for dmax in ("1000000", "99999999999999999999999")
    for human in ([], ["--human"])
]


@pytest.mark.parametrize("argv", DMAX_PAST_THE_BOUND, ids=" ".join)
def test_delliptic_refuses_a_dmax_past_the_bound_at_once(capsys, argv):
    # both ran past a 10 s timeout before the bound: every degree is walked
    from covercalc.delliptic import MAX_DMAX

    start = time.perf_counter()
    code, out = run_cli(capsys, ["delliptic", "--dmax", *argv, "--series", "--qmod"])
    assert time.perf_counter() - start < 1
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == (f"PipelineError: --dmax must be at most {MAX_DMAX}, "
                                "the bound on the degrees walked")


def test_delliptic_refuses_a_dmax_past_the_bound_under_python_O():
    runs = [["delliptic", "--dmax", *argv] for argv in DMAX_PAST_THE_BOUND]
    start = time.perf_counter()
    results = _run_under_python_O(runs)
    assert time.perf_counter() - start < 2  # one interpreter start, four refusals
    for out, code in results:
        assert code == "2"
        payload = json.loads(out)
        check_schema("error", payload)
        assert payload["error"].startswith("PipelineError: --dmax must be at most ")


def test_delliptic_walks_up_to_the_dmax_bound(monkeypatch, capsys):
    from covercalc import delliptic

    assert delliptic.MAX_DMAX >= 200
    monkeypatch.setattr(delliptic, "MAX_DMAX", 8)
    code, out = run_cli(capsys, ["delliptic", "--dmax", "8"])
    assert code == 0 and list(json.loads(out)["values"]) == [str(d) for d in range(2, 9)]
    code, out = run_cli(capsys, ["delliptic", "--dmax", "9"])
    assert code == 2
    assert json.loads(out)["error"] == ("PipelineError: --dmax must be at most 8, "
                                        "the bound on the degrees walked")


def test_delliptic_refuses_ledger_rows_past_their_bound_at_once(capsys):
    # --dmax 200 --ledger would hold gigabytes of rows: RSS grows as dmax^4
    from covercalc.delliptic import MAX_LEDGER_DMAX

    for dmax in (str(MAX_LEDGER_DMAX + 1), "200"):
        start = time.perf_counter()
        code, out = run_cli(capsys, ["delliptic", "--dmax", dmax, "--ledger", "--series"])
        assert time.perf_counter() - start < 1
        assert code == 2
        payload = json.loads(out)
        check_schema("error", payload)
        assert payload["error"] == (f"PipelineError: --dmax must be at most {MAX_LEDGER_DMAX} "
                                    "with --ledger, the bound on the ledger rows held in memory")


def test_delliptic_ledger_bound_binds_only_where_rows_are_built(monkeypatch, capsys):
    from covercalc import delliptic

    assert 20 <= delliptic.MAX_LEDGER_DMAX <= delliptic.MAX_DMAX
    monkeypatch.setattr(delliptic, "MAX_LEDGER_DMAX", 5)
    code, out = run_cli(capsys, ["delliptic", "--dmax", "5", "--ledger"])
    assert code == 0 and list(json.loads(out)["ledgers"]) == [str(d) for d in range(2, 6)]
    code, out = run_cli(capsys, ["delliptic", "--dmax", "6", "--ledger"])
    assert code == 2 and json.loads(out)["error"].startswith(
        "PipelineError: --dmax must be at most 5 with --ledger")
    # no rows without --ledger, nor with --human, so no ledger bound either
    for argv in (["--series"], ["--ledger", "--human"]):
        code, out = run_cli(capsys, ["delliptic", "--dmax", "8", *argv])
        assert code == 0 and "ledgers" not in out


def test_invariant_breach_exits_3(monkeypatch, capsys):
    import covercalc.delliptic as delliptic

    real = delliptic.normalization_branches
    monkeypatch.setattr(delliptic, "normalization_branches", lambda nodes: 2 * real(nodes))
    code, out = run_cli(capsys, ["delliptic", "--dmax", "3"])
    assert code == 3
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"].startswith("internal invariant breach: polygon-bridge row")


# Breaches of the checks each degree's pairing values pass after their rows,
# planted by wrapping a name in `delliptic` (the name, then the source of the
# wrapper): a closed form off by sigma + 1, and aggregates that keep their
# total but no longer cancel.  Each is a bug, not bad input: once exit 2.
LEDGER_BREACHES = {
    "closed form": ("sigma", "lambda real: lambda n: real(n) + 1",
                    "d=2: normalized stratum route 12 disagrees with closed form 16"),
    "cancellation": ("_delta00_walk",
                     "lambda real: lambda d, rows: tuple(x + y for x, y in "
                     "zip(real(d, rows), (-1, 1, 0, 0)))",
                     "d=2: correction aggregates fail to cancel"),
}


@pytest.mark.parametrize("name, wrapper, message", LEDGER_BREACHES.values(),
                         ids=LEDGER_BREACHES.keys())
def test_a_ledger_closed_form_breach_exits_3(monkeypatch, capsys, name, wrapper, message):
    import covercalc.delliptic as delliptic

    monkeypatch.setattr(delliptic, name, eval(wrapper)(getattr(delliptic, name)))
    code, out = run_cli(capsys, ["delliptic", "--dmax", "3"])
    assert code == 3
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == f"internal invariant breach: {message}"


@pytest.mark.parametrize("name, wrapper, message", LEDGER_BREACHES.values(),
                         ids=LEDGER_BREACHES.keys())
def test_a_ledger_closed_form_breach_exits_3_under_python_O(name, wrapper, message):
    prelude = f"import covercalc.delliptic as d\nd.{name} = ({wrapper})(d.{name})\n"
    [(out, code)] = _run_under_python_O([["delliptic", "--dmax", "3"]], prelude)
    assert code == "3"
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == f"internal invariant breach: {message}"


@pytest.mark.parametrize("error", [KeyError, TypeError, ValueError])
def test_a_builtin_error_is_an_internal_error_not_bad_input(monkeypatch, capsys, error):
    # only an errors.InputError exits 2; a builtin error from inside a layer
    # is a bug, reported as JSON with exit 3 rather than a traceback
    import covercalc.mbar as mbar

    def fail(genus, exponents):
        raise error("planted")

    monkeypatch.setattr(mbar, "integrate_psi", fail)
    code, out = run_cli(capsys, ["integrate", "--genus", "0", "--exponents", "0,0,0"])
    assert code == 3
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == f"internal error: {error.__name__}: {error('planted')}"


@pytest.mark.parametrize("constant", ["1", "5"])
def test_qmod_check_fits_a_constant_on_its_one_coefficient(tmp_path, capsys, constant):
    # the basis to q^0 is the constant 1; building it was once refused with
    # "truncation order must be at least 1"
    code, out = _run_with_inputs(
        tmp_path, capsys,
        ["qmod-check", "--fit", "1", "--holdout", "0", "--weight", "0", "--input", "@in"],
        {"in": {"order": 0, "coefficients": [constant]}},
    )
    assert code == 0
    payload = json.loads(out)
    check_schema("qmod-check", payload)
    assert payload["is_member"] is True
    assert payload["coefficients"] == {"1": constant}


# Long chains of the dilaton and string equations, with their values
# <tau_1^n>_1 = (n-1)!/24, <tau_0^3 tau_1^k>_0 = k!,
# <tau_0^(n-1) tau_(n-3)>_0 = 1 and <tau_0^m tau_(3g-2+m)>_g = 1/(24^g g!):
# each once ended in a RecursionError traceback with exit 1, and the string
# chains in genus >= 1 then in an exit 2 refusal.  Both equations run as
# loops, so every chain must print its value.
LONG_CHAINS = {
    "tau_1^500 genus 1": ("1", [1] * 500, Fraction(factorial(499), 24)),
    "tau_1^600 genus 1": ("1", [1] * 600, Fraction(factorial(599), 24)),
    "tau_0^3 tau_1^600 genus 0": ("0", [0] * 3 + [1] * 600, factorial(600)),
    "tau_0^400 tau_398 genus 0": ("0", [0] * 400 + [398], 1),
    "tau_0^2000 tau_1998 genus 0": ("0", [0] * 2000 + [1998], 1),
    "tau_0^400 tau_401 genus 1": ("1", [0] * 400 + [401], Fraction(1, 24)),
    "tau_0^400 tau_404 genus 2": ("2", [0] * 400 + [404], Fraction(1, 1152)),
    "tau_0^1000 tau_1007 genus 3": ("3", [0] * 1000 + [1007], Fraction(1, 82944)),
}


@pytest.mark.parametrize("genus, exponents, value", LONG_CHAINS.values(),
                         ids=LONG_CHAINS.keys())
def test_integrate_long_chains_print_the_exact_value(capsys, genus, exponents, value):
    argv = ["integrate", "--genus", genus, "--exponents", ",".join(map(str, exponents))]
    code, out = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    check_schema("integrate", payload)
    assert payload["value"] == rat_to_str(Fraction(value))


def test_a_recursion_too_deep_for_its_genus_names_the_genus(capsys):
    # <tau_898>_300 once ran into the recursion limit; the genus bound now
    # refuses it first, and the refusal names the genus
    from covercalc.mbar import MAX_GENUS

    code, out = run_cli(capsys, ["integrate", "--genus", "300", "--exponents", "898"])
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == (f"IntegralError: genus 300 is above {MAX_GENUS}, "
                                "the bound on the genus integrated")


def test_integrate_refuses_a_genus_past_the_bound_at_once(capsys):
    # <tau_118>_40 ran past 20 s before the bound
    from covercalc.mbar import MAX_GENUS

    start = time.perf_counter()
    code, out = run_cli(capsys, ["integrate", "--genus", "40", "--exponents", "118"])
    assert time.perf_counter() - start < 1
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == (f"IntegralError: genus 40 is above {MAX_GENUS}, "
                                "the bound on the genus integrated")


def test_integrate_answers_up_to_the_genus_bound(monkeypatch, capsys):
    from covercalc import mbar

    assert mbar.MAX_GENUS >= 20
    monkeypatch.setattr(mbar, "MAX_GENUS", 3)
    code, out = run_cli(capsys, ["integrate", "--genus", "3", "--exponents", "7"])
    assert code == 0 and json.loads(out)["value"] == rat_to_str(Fraction(1, 82944))
    code, out = run_cli(capsys, ["integrate", "--genus", "4", "--exponents", "10"])
    assert code == 2
    assert json.loads(out)["error"] == ("IntegralError: genus 4 is above 3, "
                                        "the bound on the genus integrated")


# <tau_2^(3g-3)>_g as a fresh process: the DVV split term once summed over
# all 2^(n-1) subsets of the other points, 5 s at genus 6 and past 30 s at 7
@pytest.mark.parametrize("genus, bound, value", [
    (6, 2.0, "8591613499103635/96"),
    (7, 10.0, "23107999588635836875"),
])
def test_integrate_of_many_equal_points_runs_in_seconds(genus, bound, value):
    argv = ["integrate", "--genus", str(genus), "--exponents", ",".join(["2"] * (3 * genus - 3))]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "covercalc.cli", *argv],
                          capture_output=True, text=True, env=env, check=True)
    assert time.perf_counter() - start < bound
    payload = json.loads(done.stdout)
    check_schema("integrate", payload)
    assert payload["value"] == value


@pytest.mark.parametrize("genus", [11, 12])
def test_integrate_refuses_too_many_dvv_points_at_once(genus):
    # <tau_2^(3g-3)>_g took 54 s at g = 11 and ran past 90 s at g = 12
    from covercalc.mbar import MAX_DVV_POINTS

    argv = ["integrate", "--genus", str(genus), "--exponents", ",".join(["2"] * (3 * genus - 3))]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "covercalc.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 2
    payload = json.loads(done.stdout)
    check_schema("error", payload)
    assert payload["error"] == (f"IntegralError: {3 * genus - 3} points of exponent >= 2 is "
                                f"above {MAX_DVV_POINTS}, the bound on the points a DVV step "
                                "sums over")


def test_integrate_counts_only_exponents_of_2_or_more_in_positive_genus(monkeypatch, capsys):
    from covercalc import mbar

    assert mbar.MAX_DVV_POINTS >= 21  # <tau_2^21>_8 answers
    monkeypatch.setattr(mbar, "MAX_DVV_POINTS", 3)
    answered = [
        ("2", "2,2,2,1"),  # a tau_1 does not count
        ("0", "2,2,2,2,0,0,0,0,0,0,0"),  # genus 0 is a closed form, with no DVV step
    ]
    for genus, exponents in answered:
        code, out = run_cli(capsys, ["integrate", "--genus", genus, "--exponents", exponents])
        assert code == 0, out
    code, out = run_cli(capsys, ["integrate", "--genus", "3", "--exponents", "2,2,3,3"])
    assert code == 2
    assert json.loads(out)["error"] == ("IntegralError: 4 points of exponent >= 2 is above 3, "
                                        "the bound on the points a DVV step sums over")


def test_hurwitz_count_refuses_too_many_branch_points_at_once(capsys):
    # 400 transpositions after a 7-cycle took 36 s before the bound
    from covercalc.hurwitz import MAX_BRANCH_POINTS

    for count in (MAX_BRANCH_POINTS + 1, 400):
        types = json.dumps([[7]] + [[2, 1, 1, 1, 1, 1]] * (count - 1))
        start = time.perf_counter()
        code, out = run_cli(capsys, ["hurwitz-count", "--degree", "7", "--types", types])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        payload = json.loads(out)
        check_schema("error", payload)
        assert payload["error"] == (f"HurwitzError: {count} branch points is above "
                                    f"{MAX_BRANCH_POINTS}, the bound on the branch points counted")


def test_hurwitz_count_answers_at_the_branch_point_bound(capsys):
    # the slowest even mix measured at d = 7, in both modes
    from covercalc.hurwitz import MAX_BRANCH_POINTS

    mix = [[2, 2, 1, 1, 1], [2, 1, 1, 1, 1, 1], [3, 2, 1, 1]]
    types = json.dumps([mix[i % 3] for i in range(MAX_BRANCH_POINTS)])
    for flags in ([], ["--weighted"]):
        start = time.perf_counter()
        code, out = run_cli(capsys, ["hurwitz-count", "--degree", "7", "--types", types, *flags])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        check_schema("hurwitz-count", json.loads(out))


def _over_4300_digits(tmp_path):
    """(argv, exit code, error class or None) of four calls that each convert
    a 5000-digit or longer int: one result and three outside inputs."""
    big = "1" + "0" * 4999
    (tmp_path / "int.json").write_text('{"order": ' + big + ', "coefficients": []}')
    (tmp_path / "p.json").write_text(json.dumps({"order": 0, "coefficients": [big]}))
    return [
        (["integrate", "--genus", "1", "--exponents", ",".join(["1"] * 2000)], 0, None),
        (["qmod-check", "--input", str(tmp_path / "int.json")], 2, "UsageError"),
        (["integrate", "--genus", big, "--exponents", "1"], 2, "UsageError"),
        (["qmod-check", "--input", str(tmp_path / "p.json")], 2, "SeriesError"),
    ]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int -> str digit limit")
@pytest.mark.parametrize("result_first", [True, False], ids=["result first", "inputs first"])
def test_a_result_of_any_length_prints_while_inputs_keep_the_digit_limit(
        tmp_path, capsys, result_first):
    # 1999!/24 has 5700 digits: past Python's int -> str limit, which every
    # parse of outside input keeps, and which main() puts back when it returns
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(factorial(1999) // 24)
    finally:
        sys.set_int_max_str_digits(limit)
    calls = _over_4300_digits(tmp_path)
    for argv, exit_code, error in calls if result_first else calls[::-1]:
        code, out = run_cli(capsys, argv)
        assert sys.get_int_max_str_digits() == limit
        payload = json.loads(out)
        assert code == exit_code, payload
        if error is None:
            check_schema("integrate", payload)
            assert payload["value"] == expected
        else:
            check_schema("error", payload)
            assert payload["error"].startswith(error + ": ")


S3 = {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}


@pytest.mark.parametrize("extra", [{"cls": "kappa"}, {"cls": "psi", "h": [2, 3, 1]}])
def test_pullback_corestriction_rejects_a_non_normal_subgroup(tmp_path, capsys, extra):
    payload = dict(extra, kind="corestriction", group=S3, normal=[[2, 1, 3]])
    code, out = _run_with_inputs(tmp_path, capsys, ["pullback", "@in"], {"in": payload})
    assert code == 2
    check_schema("error", json.loads(out))
    assert json.loads(out)["error"] == (
        "NotNormalError: subgroup is not normal: conjugating [2, 1, 3] by [2, 3, 1] leaves it")


def _cut_half_edge_monodromy(gg):
    gg["monodromy_half_edges"] = gg["monodromy_half_edges"][:2]


def _action_image_out_of_range(gg):
    gg["action_generators"][0]["half_edges"] = [2, 3, 0, 9]


def _monodromy_of_wrong_degree(gg):
    gg["monodromy_half_edges"][0] = [1, 2, 3]


def _extra_leg_monodromy(gg):
    gg["monodromy_legs"].append(gg["monodromy_legs"][0])


def _xi_with_a_repeated_point(gg):
    gg["space"]["xi"][0] = [1, 1]


def _xi_with_a_zero_point(gg):
    gg["space"]["xi"][0] = [2, 0]


def _xi_of_larger_degree(gg):
    gg["space"]["xi"][0] = [2, 1, 3]


def _xi_of_smaller_degree(gg):
    gg["space"]["xi"][0] = [1]


MALFORMED_XI = [
    _xi_with_a_repeated_point,
    _xi_with_a_zero_point,
    _xi_of_larger_degree,
    _xi_of_smaller_degree,
]


@pytest.mark.parametrize("damage", [
    _cut_half_edge_monodromy,
    _action_image_out_of_range,
    _monodromy_of_wrong_degree,
    _extra_leg_monodromy,
    *MALFORMED_XI,
])
def test_validate_ggraph_rejects_malformed_shapes(tmp_path, capsys, damage):
    from gg_factory import _z2_gp

    gg = _z2_gp(1).to_json()
    damage(gg)
    code, out = _run_with_inputs(tmp_path, capsys, ["validate-ggraph", "@in"], {"in": gg})
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"].startswith("CoverError")


@pytest.mark.parametrize("damage", MALFORMED_XI)
def test_intersect_ggraph_rejects_malformed_xi(tmp_path, capsys, damage):
    from gg_factory import _z2_gp

    good = _z2_gp(1).to_json()
    bad = _z2_gp(1).to_json()
    damage(bad)
    code, out = _run_with_inputs(
        tmp_path, capsys, ["intersect-ggraph", "--a", "@a", "--b", "@b"], {"a": bad, "b": good}
    )
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"].startswith("CoverError: xi entry")


def _set(path, value):
    """A damage that replaces the entry of the G-graph JSON at path."""
    def damage(gg):
        target = gg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return damage


XI = ("space", "xi", 0)
GENERATOR = ("space", "group", "generators", 0)


@pytest.mark.parametrize("path, value, error", [
    (XI, [2.0, 1.0], "GroupError"),
    (XI, [2, True], "GroupError"),
    (XI, 3, "GroupError"),
    (GENERATOR, [2.0, 1.0], "GroupError"),
    (GENERATOR, [2, True], "GroupError"),
    (("action_generators", 0, "vertices"), [1.0, 0.0, 2.0], "CoverError"),
    (("action_generators", 0, "legs"), [False, True], "CoverError"),
    (("monodromy_legs", 0), [2.0, 1.0], "GroupError"),
])
def test_validate_ggraph_rejects_non_integer_permutation_entries(
    tmp_path, capsys, path, value, error
):
    from gg_factory import _z2_gp

    gg = _z2_gp(1).to_json()
    _set(path, value)(gg)
    code, out = _run_with_inputs(tmp_path, capsys, ["validate-ggraph", "@in"], {"in": gg})
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"].startswith(error)


def test_validate_ggraph_rejects_an_action_that_breaks_the_group_law(tmp_path, capsys):
    # a 3-cycle of the vertices for the generator of Z/2: each image is a
    # permutation, but its square is not the identity
    from gg_factory import _z2_gp

    gg = _z2_gp(1).to_json()
    gg["action_generators"][0]["vertices"] = [1, 2, 0]
    code, out = _run_with_inputs(tmp_path, capsys, ["validate-ggraph", "@in"], {"in": gg})
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == "ActionError: generator images violate the group relations"


def test_a_group_past_the_order_bound_exits_2(tmp_path, capsys, monkeypatch):
    from covercalc import groups
    from gg_factory import _z2_gp

    monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 10**4)
    assert len(groups.symmetric_group(7)) == 5040
    gg = _z2_gp(1).to_json()
    gg["space"]["group"] = {"degree": 8, "generators": [[2, 1, 3, 4, 5, 6, 7, 8],
                                                       [2, 3, 4, 5, 6, 7, 8, 1]]}
    code, out = _run_with_inputs(tmp_path, capsys, ["validate-ggraph", "@in"], {"in": gg})
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == ("GroupError: the generators give a group of more than 10000 "
                                "elements, the bound on a group's order")


@pytest.mark.parametrize("field, value", [("h", [2.0, 3, 4, 1]), ("normal", [[2, 1, 4, True]])])
def test_pullback_rejects_non_integer_permutation_entries(tmp_path, capsys, field, value):
    s4 = {"degree": 4, "generators": [[2, 1, 3, 4], [2, 3, 4, 1]]}
    payload = {"kind": "corestriction", "cls": "psi", "group": s4,
               "normal": [[2, 1, 4, 3], [3, 4, 1, 2]], "h": [2, 3, 4, 1], field: value}
    code, out = _run_with_inputs(tmp_path, capsys, ["pullback", "@in"], {"in": payload})
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"].startswith("GroupError: permutation must be a list of integers")


def _ggraph_json():
    from gg_factory import _z2_gp

    return _z2_gp(1).to_json()


def _array_at(document: dict, path: tuple) -> dict | list:
    """The document with a JSON array where its object at `path` was."""
    if not path:
        return [document]
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = [target[path[-1]]]
    return document


PULLBACK = {"kind": "corestriction", "cls": "psi", "group": S3,
            "normal": [[2, 3, 1]], "h": [2, 1, 3]}

# Each command's document with an array where an object belongs, and the
# error it gets: each used to end in "TypeError: list indices must be
# integers or slices, not str"
ARRAYS_FOR_OBJECTS = [
    (["qmod-check", "--input", "@in"], lambda: {"order": 1, "coefficients": ["1", "0"]}, (),
     "SeriesError: a q-series must be a JSON object"),
    (["pullback", "@in"], lambda: dict(PULLBACK), (),
     "CoverError: a pullback payload must be a JSON object"),
    (["pullback", "@in"], lambda: dict(PULLBACK), ("group",),
     "GroupError: a group must be a JSON object"),
    (["validate-ggraph", "@in"], _ggraph_json, (),
     "CoverError: an admissible G-graph must be a JSON object"),
    (["validate-ggraph", "@in"], _ggraph_json, ("space",),
     "CoverError: a Hurwitz space must be a JSON object"),
    (["validate-ggraph", "@in"], _ggraph_json, ("space", "group"),
     "GroupError: a group must be a JSON object"),
    (["validate-ggraph", "@in"], _ggraph_json, ("action_generators", 0),
     "CoverError: action entry [{"),
    (["intersect-ggraph", "--a", "@in", "--b", "@in"], _ggraph_json, (),
     "CoverError: an admissible G-graph must be a JSON object"),
    (["intersect-ggraph", "--a", "@in", "--b", "@in"], _ggraph_json, ("space",),
     "CoverError: a Hurwitz space must be a JSON object"),
    (["intersect-ggraph", "--a", "@in", "--b", "@in"], _ggraph_json, ("space", "group"),
     "GroupError: a group must be a JSON object"),
]


@pytest.mark.parametrize("argv, document, path, error", ARRAYS_FOR_OBJECTS,
                         ids=[f"{a[0]} {'.'.join(map(str, p)) or 'document'}"
                              for a, _, p, _ in ARRAYS_FOR_OBJECTS])
def test_an_array_where_an_object_belongs_is_a_domain_error(
    tmp_path, capsys, argv, document, path, error
):
    files = {"in": _array_at(document(), path)}
    code, out = _run_with_inputs(tmp_path, capsys, argv, files)
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"].startswith(error)
    assert "TypeError" not in payload["error"]


# A null, a number or an empty object where a list or an object belongs,
# and the domain error it gets; each used to end in a bare TypeError or
# KeyError
NULLS_AND_NUMBERS = [
    (["validate-ggraph", "@in"], ("action_generators",), None, "CoverError"),
    (["validate-ggraph", "@in"], ("action_generators",), 3, "CoverError"),
    (["validate-ggraph", "@in"], ("monodromy_half_edges",), None, "CoverError"),
    (["validate-ggraph", "@in"], ("monodromy_half_edges",), 3, "CoverError"),
    (["validate-ggraph", "@in"], ("monodromy_legs",), None, "CoverError"),
    (["validate-ggraph", "@in"], ("monodromy_legs",), 3, "CoverError"),
    (["validate-ggraph", "@in"], ("action_generators", 0, "legs"), None, "CoverError"),
    (["validate-ggraph", "@in"], ("action_generators", 0), {}, "CoverError"),
    (["validate-ggraph", "@in"], ("space", "xi"), None, "CoverError"),
    (["validate-ggraph", "@in"], ("space",), {}, "CoverError"),
    (["validate-ggraph", "@in"], ("graph",), {}, "GraphError"),
    (["validate-ggraph", "@in"], ("space", "group"), {}, "GroupError"),
    (["intersect-ggraph", "--a", "@in", "--b", "@in"], ("graph",), {}, "GraphError"),
    (["qmod-check", "--input", "@in"], ("coefficients",), None, "SeriesError"),
    (["pullback", "@in"], ("normal",), None, "CoverError"),
    (["pullback", "@in"], ("group",), {}, "GroupError"),
]
_DOCUMENTS = {"validate-ggraph": _ggraph_json, "intersect-ggraph": _ggraph_json,
              "qmod-check": lambda: {"order": 1, "coefficients": ["1", "0"]},
              "pullback": lambda: dict(PULLBACK)}


@pytest.mark.parametrize("argv, path, value, error", NULLS_AND_NUMBERS,
                         ids=[f"{a[0]} {'.'.join(map(str, p))}={json.dumps(v)}"
                              for a, p, v, _ in NULLS_AND_NUMBERS])
def test_a_null_number_or_empty_object_is_a_domain_error(
    tmp_path, capsys, argv, path, value, error
):
    document = _DOCUMENTS[argv[0]]()
    _set(path, value)(document)
    code, out = _run_with_inputs(tmp_path, capsys, argv, {"in": document})
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"].startswith(f"{error}: ")
    assert not payload["error"].startswith(("TypeError", "KeyError"))


def test_a_pullback_without_its_group_is_a_domain_error(tmp_path, capsys):
    files = {"in": {"kind": "corestriction", "cls": "psi"}}
    code, out = _run_with_inputs(tmp_path, capsys, ["pullback", "@in"], files)
    assert code == 2
    assert json.loads(out)["error"] == "CoverError: a corestriction pullback has no 'group', 'normal'"


def test_a_pullback_refusal_names_only_the_missing_group(tmp_path, capsys):
    # `normal` is given, so the refusal must not call it missing
    files = {"in": {"kind": "corestriction", "cls": "psi", "normal": [[2, 3, 1]], "h": [2, 1, 3]}}
    code, out = _run_with_inputs(tmp_path, capsys, ["pullback", "@in"], files)
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == "CoverError: a corestriction pullback has no 'group'"


@pytest.mark.parametrize("normal", [[[2, 3, 1]], None, 3])
def test_a_restriction_pullback_ignores_a_normal_without_its_group(tmp_path, capsys, normal):
    files = {"in": {"kind": "restriction", "cls": "psi", "normal": normal}}
    code, out = _run_with_inputs(tmp_path, capsys, ["pullback", "@in"], files)
    assert code == 0
    payload = json.loads(out)
    check_schema("pullback", payload)
    assert payload["map"] == "restriction"


def test_a_restriction_pullback_ignores_a_malformed_normal_in_its_group(tmp_path, capsys):
    # a restriction reads only kind and cls, with or without a group
    files = {"in": {"kind": "restriction", "cls": "psi", "group": S3, "normal": 3}}
    code, out = _run_with_inputs(tmp_path, capsys, ["pullback", "@in"], files)
    assert code == 0
    payload = json.loads(out)
    check_schema("pullback", payload)
    assert payload == {"map": "restriction", "terms": [
        {"class": "psi", "coefficient": "1", "data": "same point"}]}


@pytest.mark.parametrize("payload, unread", [
    ({"kind": "forgetful", "cls": "psi", "group": S3, "h": [2, 1, 3], "normal": 5}, "normal"),
    ({"kind": "corestriction", "cls": "kappa", "group": S3, "normal": [[2, 3, 1]], "h": "x"},
     "h"),
], ids=["forgetful normal", "corestriction kappa h"])
def test_a_pullback_ignores_a_field_its_kind_never_reads(tmp_path, capsys, payload, unread):
    # each used to exit 2 over the malformed field
    read = {field: value for field, value in payload.items() if field != unread}
    answers = []
    for document in (payload, read):
        code, out = _run_with_inputs(tmp_path, capsys, ["pullback", "@in"], {"in": document})
        assert code == 0, out
        check_schema("pullback", json.loads(out))
        answers.append(out)
    assert answers[0] == answers[1]


MALFORMED_TYPES = ["[[2.5],[2]]", "[[true,true],[2],[2]]", '[["2"],[2]]', "5", "[2,2]"]


@pytest.mark.parametrize("types", MALFORMED_TYPES)
def test_hurwitz_count_rejects_types_that_are_not_lists_of_integers(capsys, types):
    # int(...) used to read 2.5 as 2, true as 1 and "2" as 2, and print a count
    code, out = run_cli(capsys, ["hurwitz-count", "--degree", "2", "--types", types])
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"].startswith("HurwitzError")


MALFORMED_KAPPA_INDICES = [2.7, True, "4", 0, -3]


@pytest.mark.parametrize("index", MALFORMED_KAPPA_INDICES)
def test_pullback_forgetful_kappa_rejects_a_bad_index(tmp_path, capsys, index):
    # int(...) used to read 2.7 as 2, true as 1 and "4" as 4; 0 and -3 printed
    # a formula although kappa_0 is a constant
    payload = {"kind": "forgetful", "cls": "kappa", "group": S3, "index": index}
    code, out = _run_with_inputs(tmp_path, capsys, ["pullback", "@in"], {"in": payload})
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"].startswith("CoverError: kappa index")


def test_malformed_types_and_kappa_indices_exit_2_under_python_O(tmp_path):
    runs = [["hurwitz-count", "--degree", "2", "--types", t] for t in MALFORMED_TYPES]
    for i, index in enumerate(MALFORMED_KAPPA_INDICES):
        path = tmp_path / f"kappa{i}.json"
        path.write_text(json.dumps({"kind": "forgetful", "cls": "kappa", "group": S3, "index": index}))
        runs.append(["pullback", str(path)])
    for out, code in _run_under_python_O(runs):
        assert code == "2"
        check_schema("error", json.loads(out))


def _run_under_python_O(runs: list[list[str]], prelude: str = "") -> list[tuple[str, str]]:
    """(stdout, exit code) of each argv, run through main() in one `python -O`
    process after the source `prelude`; the checks raise domain errors, not
    asserts, so -O keeps them."""
    script = (prelude + "import json, sys\nfrom covercalc.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n    print(main(argv), end='\\0')\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    chunks = done.stdout.split("\0")[:-1]
    assert len(chunks) == len(runs)
    return [tuple(chunk.rsplit("\n", 1)) for chunk in chunks]


# Command lines argparse refuses, and the start of each error: they used to
# print usage to stderr and leave stdout empty
USAGE_ERRORS = [
    (["hurwitz-count", "--degree", "x", "--types", "[[2],[2]]"],
     "UsageError: argument --degree: invalid int value: 'x'"),
    (["hurwitz-count", "--degree", "2"],
     "UsageError: the following arguments are required: --types"),
    (["frobnicate"], "UsageError: argument command: invalid choice: 'frobnicate'"),
    ([], "UsageError: the following arguments are required: command"),
    (["integrate", "--genus", "0", "--exponents", "1,0,0,0", "--bogus"],
     "UsageError: unrecognized arguments: --bogus"),
    # empty exponents used to be skipped: ",0,0,0" printed the value of
    # "0,0,0", and "1,,0" was read as two marked points
    (["integrate", "--genus", "0", "--exponents", ",0,0,0"],
     "UsageError: argument --exponents: exponent '' in ',0,0,0' is not an integer"),
    (["integrate", "--genus", "1", "--exponents", "1,,0"],
     "UsageError: argument --exponents: exponent '' in '1,,0' is not an integer"),
    (["integrate", "--genus", "1", "--exponents", ""],
     "UsageError: argument --exponents: exponent '' in '' is not an integer"),
    (["integrate", "--genus", "1", "--exponents", "1,x"],
     "UsageError: argument --exponents: exponent 'x' in '1,x' is not an integer"),
]


@pytest.mark.parametrize("argv, error", USAGE_ERRORS, ids=[" ".join(a) or "no command"
                                                            for a, _ in USAGE_ERRORS])
def test_usage_errors_are_json_errors(capsys, argv, error):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    check_schema("error", payload)
    assert payload["error"].startswith(error)


def test_usage_errors_exit_2_under_python_O():
    results = _run_under_python_O([argv for argv, _ in USAGE_ERRORS])
    for (out, code), (_, error) in zip(results, USAGE_ERRORS):
        assert code == "2"
        payload = json.loads(out)
        check_schema("error", payload)
        assert payload["error"].startswith(error)


# Inputs the JSON reader cannot read: each used to end in a traceback with
# exit 1 (FileNotFoundError, IsADirectoryError, or a RecursionError from the
# decoder).  "{missing}", "{dir}" and "{deep}" stand for paths under tmp_path.
UNREADABLE_INPUTS = {
    "missing file": (["validate-ggraph", "{missing}"],
                     "UsageError: cannot read '{missing}': No such file or directory"),
    "directory": (["intersect-boundary", "--a", "{dir}", "--b", "{dir}"],
                  "UsageError: cannot read '{dir}': Is a directory"),
    "deep file": (["qmod-check", "--input", "{deep}"],
                  "UsageError: '{deep}' nests JSON too deeply to decode"),
    "deep types": (["hurwitz-count", "--degree", "2", "--types", "[" * 2000 + "]" * 2000],
                   "UsageError: --types nests JSON too deeply to decode"),
    # not JSON: a bare json.JSONDecodeError, once exit 2 as a ValueError
    "text file": (["pullback", "{text}"],
                  "UsageError: '{text}' is not JSON: Expecting value: line 1 column 1 (char 0)"),
    "text types": (["hurwitz-count", "--degree", "2", "--types", "[[2],"],
                   "UsageError: --types is not JSON: Expecting value: line 1 column 6 (char 5)"),
}


def _unreadable(tmp_path, argv, error):
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "text.json").write_text("psi")
    paths = {"missing": str(tmp_path / "missing.json"), "dir": str(tmp_path),
             "deep": str(tmp_path / "deep.json"), "text": str(tmp_path / "text.json")}
    return [arg.format(**paths) for arg in argv], error.format(**paths)


@pytest.mark.parametrize("argv, error", UNREADABLE_INPUTS.values(), ids=UNREADABLE_INPUTS.keys())
def test_unreadable_inputs_are_usage_errors(tmp_path, capsys, argv, error):
    argv, error = _unreadable(tmp_path, argv, error)
    code, out = run_cli(capsys, argv)
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == error


def test_deep_json_on_stdin_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100_000))
    code, out = run_cli(capsys, ["qmod-check"])
    assert code == 2
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == "UsageError: stdin nests JSON too deeply to decode"


def test_unreadable_inputs_exit_2_under_python_O(tmp_path):
    cases = [_unreadable(tmp_path, argv, error) for argv, error in UNREADABLE_INPUTS.values()]
    for (out, code), (_, error) in zip(_run_under_python_O([a for a, _ in cases]), cases):
        assert code == "2"
        payload = json.loads(out)
        check_schema("error", payload)
        assert payload["error"] == error


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["hurwitz-count", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: covercalc hurwitz-count")


def test_hurwitz_count_of_too_few_transpositions_is_zero(capsys):
    # degree 6 with 8 simple branch points: Riemann-Hurwitz genus -1, so no cover
    types = json.dumps([[2, 1, 1, 1, 1]] * 8)
    for flags in ([], ["--weighted"]):
        code, out = run_cli(capsys, ["hurwitz-count", "--degree", "6", "--types", types, *flags])
        assert code == 0
        payload = json.loads(out)
        check_schema("hurwitz-count", payload)
        assert payload["count"] == "0"


def test_hurwitz_degree_bound_holds_under_python_O():
    argv = ["hurwitz-count", "--degree", "8", "--types", "[[8], [8]]"]
    [(out, code)] = _run_under_python_O([argv])
    assert code == "2"
    payload = json.loads(out)
    check_schema("error", payload)
    assert payload["error"] == "HurwitzError: degree 8 outside the enumeration range 1..7"


# Characters that JSON escapes, or that an encoder could get wrong: quotes,
# controls, the line separators U+2028/U+2029, lone surrogates (the two
# halves of U+1F600 can meet in one string) and a character beyond the BMP.
AWKWARD_CHARACTERS = ['"', "\\", "/", "\x00", "\t", "\n", "\x1f", "\x7f", "é", "\u2028",
                      "\u2029", "\ud83d", "\ude00", "\udfff", "\U0001f600", "\uffff"]
json_text = st.text(st.one_of(st.characters(codec=None, exclude_categories=()),
                              st.sampled_from(AWKWARD_CHARACTERS)), max_size=12)
json_scalars = st.one_of(
    json_text, st.integers(), st.integers(min_value=-10**100, max_value=10**100),
    st.booleans(), st.none(),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(json_text, inner, max_size=5),
    ),
    max_leaves=30,
)
# a small value repeated so often that the output spans several blocks
json_long_lists = st.tuples(
    st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=4),
    st.integers(cli._BLOCK, 2 * cli._BLOCK),
).map(lambda value_count: [value_count[0]] * value_count[1])


class _Writes:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def _emitted(payload) -> list[str]:
    out = _Writes()
    with redirect_stdout(out):
        cli._emit(payload)
    return out.writes


@settings(deadline=None)
@given(json_values)
def test_emit_writes_exactly_what_json_dumps_writes(payload):
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert "".join(_emitted(payload)) == expected


@settings(max_examples=15, deadline=None)
@given(json_long_lists)
def test_emit_writes_exactly_what_json_dumps_writes_across_blocks(payload):
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    writes = _emitted(payload)
    assert "".join(writes) == expected
    # each item adds at least one piece, so a block holds at most _BLOCK items
    assert len(writes) > len(payload) // cli._BLOCK


@pytest.mark.parametrize("payload", [
    {"value": 0.5},
    {"value": [1, 2.0]},
    {1: "an int key"},
    {"value": {(1, 2): "a tuple key"}},
    {"value": {1, 2}},
    {"value": frozenset()},
], ids=["float", "nested float", "int key", "nested tuple key", "set", "frozenset"])
def test_emit_refuses_values_json_output_never_holds(payload):
    with pytest.raises(InvariantError):
        _emitted(payload)


def test_ledger_rows_print_as_json_dumps_prints_their_oracle_objects():
    # the ledgers sit where `delliptic --ledger` puts them, so every row is
    # printed by the row template at the CLI's indent
    ledgers = {str(d): degree_ledger(d) for d in range(2, 25)}
    written = _emitted({"ledgers": {
        d: {"delta00": cli._LedgerRows(x.delta00_rows), "delta01": cli._LedgerRows(x.delta01_rows)}
        for d, x in ledgers.items()}})
    objects = {d: {"delta00": [ledger_row_json(r) for r in x.delta00_rows],
                   "delta01": [ledger_row_json(r) for r in x.delta01_rows]}
               for d, x in ledgers.items()}
    assert "".join(written) == json.dumps({"ledgers": objects}, sort_keys=True, indent=2) + "\n"
    printed = [row for ledger in objects.values() for side in ledger.values() for row in side]
    assert len({row["subcase"] for row in printed}) == 9
    assert {row["excess_value"] is None for row in printed} == {True, False}
    assert any(row["excess_value"].startswith("-") for row in printed if row["excess_value"])
    # counts held with and without a denominator; the mark (d-2)!^2 clears
    # every one of them up to d = 24, so none prints as "p/q"
    rows = [row for x in ledgers.values() for row in x.delta00_rows + x.delta01_rows]
    assert {row.count_den == 1 for row in rows} == {True, False}


class _Sink:
    """A stdout that discards what it is given and keeps the longest write."""

    def __init__(self):
        self.longest = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))


def test_ledger_output_memory_and_writes_stay_bounded():
    # every degree's rows are held until they are printed, because `values`
    # sorts after `ledgers`; as integer tuples they take about 3 MB
    sink = _Sink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            assert main(["delliptic", "--dmax", "20", "--ledger"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert 0 < sink.longest <= 2**20
