"""The benchmark's own output checks, run in-process on seed 1 of the
`covers` and `strata` workloads, so that a change its check would refuse
fails here first.

`perfbench/workloads.py` makes the jobs and `perfbench/checks.py` judges
their stdout; both are imported as they are.  Each job runs through
`cli.main` in a directory holding its input files.  `qseries` is left out:
its ledger jobs take seconds in-process, and the golden corpus and
`test_delliptic.py` already pin those outputs.
"""

import importlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from covercalc import cli

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["covers", "strata"])
def test_every_benchmark_job_passes_the_benchmarks_check(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    checks, workloads = map(importlib.import_module, ("checks", "workloads"))
    schemas = checks.load_schemas(REPO / "schemas")
    monkeypatch.chdir(tmp_path)
    failed = []
    for job in workloads.generate(workload, 1):
        for name, text in job.files.items():
            (tmp_path / name).write_text(text)
        captured = io.StringIO()
        with redirect_stdout(captured):
            code = cli.main(job.argv)
        problem = checks.check(job, code, captured.getvalue().encode(), schemas)
        if problem is not None:
            failed.append(f"{job.id} {job.expect.get('template', '')}: {problem}")
    assert failed == []
