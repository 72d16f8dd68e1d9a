"""Output checks that recompute what they can without the program.

`check(job, exit_code, stdout, schemas)` returns None when the job did what
it should, or a one-line reason.  Every JSON output is validated against
its schema under `schemas/`; values are compared with closed forms the
benchmark computes itself.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import jsonschema

import inputs as ib


def load_schemas(schema_dir: Path) -> dict:
    out = {}
    for path in sorted(schema_dir.glob("*.schema.json")):
        schema = json.loads(path.read_text())
        out[path.name[: -len(".schema.json")]] = jsonschema.Draft202012Validator(schema)
    return out


def _schema_error(validator, payload):
    err = jsonschema.exceptions.best_match(validator.iter_errors(payload))
    return None if err is None else f"schema: {err.message[:120]}"


def check(job, exit_code, stdout: bytes, schemas: dict):
    if exit_code != job.expect_exit:
        return f"exit code {exit_code}, expected {job.expect_exit}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    command = job.argv[0]
    if job.malformed:
        return _schema_error(schemas["error"], payload)
    problem = _schema_error(schemas[command], payload)
    if problem:
        return problem
    return CHECKS[command](job.expect, payload)


def _check_delliptic(expect, out):
    dmax = expect["dmax"]
    if out["dmax"] != dmax or sorted(map(int, out["values"])) != list(range(2, dmax + 1)):
        return "wrong range of d"
    for d in range(2, dmax + 1):
        row = out["values"][str(d)]
        d00, d01 = Fraction(row["delta00"]), Fraction(row["delta01"])
        if d00 != ib.delta00_closed_form(d):
            return f"delta00 at d={d} differs from 4(d-2)!^2 (d-1) sigma1(d)"
        if d01 != ib.delta01_closed_form(d):
            return f"delta01 at d={d} differs from the sigma1 convolution"
        aggregates = [Fraction(x) for x in row["delta00_aggregates"]]
        if sum(aggregates) != d00 or sum(aggregates[1:]) != 0:
            return f"delta00 aggregates at d={d} do not add up"
        ledger = out.get("ledgers", {}).get(str(d))
        if ledger is not None:
            for key, value in (("delta00", d00), ("delta01", d01)):
                if sum(Fraction(r["total"]) for r in ledger[key]) != value:
                    return f"{key} ledger rows at d={d} do not sum to the pairing"
    if "series" in out:
        for key, closed in (("delta00_normalized", ib.delta00_closed_form),
                            ("delta01_normalized", ib.delta01_closed_form)):
            coeffs = [Fraction(c) for c in out["series"][key]["coefficients"]]
            want = [Fraction(0), Fraction(0)] + [
                Fraction(closed(d), factorial(d - 2) ** 2) for d in range(2, dmax + 1)]
            if coeffs != want:
                return f"{key} series differs from the closed form"
    if "quasimodularity" in out:
        report = out["quasimodularity"]
        for key, want in (("delta00", ib.DELTA00_SERIES), ("delta01", ib.DELTA01_SERIES)):
            if not report[key]["is_member"] or report[key]["coefficients"] != want:
                return f"{key} is not the expected E2/E4 combination"
        if not report["split_stable"]:
            return "quasimodularity verdict not split-stable"
    elif expect.get("qmod"):
        return "quasimodularity report missing"
    return None


def _check_qmod(expect, out):
    if out["is_member"] != expect["member"]:
        return f"verdict {out['is_member']}, built as {'member' if expect['member'] else 'perturbed'}"
    if out["coefficients"] != expect["coefficients"]:
        return "fitted coefficients differ from the ones the series was built from"
    return None


def _check_intersect_boundary(expect, out):
    if out["ambient"] != {"genus": expect["genus"], "legs": expect["legs"]}:
        return "wrong ambient space"
    if out["term_count"] != len(out["pushforward_class"]["terms"]):
        return "term count does not match the terms"
    return None


def _check_integrate(expect, out):
    if out["value"] != expect["value"]:
        return f"value {out['value']}, closed form {expect['value']}"
    return None


def _check_intersect_ggraph(expect, out):
    if out["term_count"] != len(out["terms"]):
        return "term count does not match the terms"
    if out["term_count"] != expect["term_count"]:
        return f"{out['term_count']} terms for {expect['template']}, expected {expect['term_count']}"
    return None


def _check_validate(expect, out):
    if out["ok"] != expect["ok"]:
        return f"ok={out['ok']}, expected {expect['ok']}"
    if "label" in expect and expect["label"] not in {v["label"] for v in out["violations"]}:
        return f"mutation {expect['label']} not reported"
    return None


def _check_hurwitz(expect, out):
    count = Fraction(out["count"])
    if count < 0:
        return "negative count"
    if "count" in expect and out["count"] != expect["count"]:
        return f"count {out['count']}, expected d^(d-3) = {expect['count']}"
    return None


def _check_pullback(expect, out):
    if out["map"] != expect["map"]:
        return "wrong map kind"
    got = [[t["class"], t["coefficient"]] for t in out["terms"]]
    if got != expect["terms"]:
        return "pullback terms differ from the group-theoretic coefficients"
    return None


CHECKS = {
    "delliptic": _check_delliptic,
    "qmod-check": _check_qmod,
    "intersect-boundary": _check_intersect_boundary,
    "integrate": _check_integrate,
    "intersect-ggraph": _check_intersect_ggraph,
    "validate-ggraph": _check_validate,
    "hurwitz-count": _check_hurwitz,
    "pullback": _check_pullback,
}
