"""Fuzz `main()` with mutated golden-corpus inputs.

Each example takes one golden entry of a JSON-reading command and changes
one thing: a field at any depth becomes null, a number, a bool, a string,
[] or {}; a field is deleted; or an input path names no file.  Whatever the
input, the command must exit 0 or 2 with schema-valid JSON, and an error
must be a domain or usage error, not a Python error from deep inside a
layer.
"""

from __future__ import annotations

import copy
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
from hypothesis import given, settings, strategies as st

from covercalc.cli import main

TESTS = Path(__file__).resolve().parent
SCHEMAS = TESTS.parent / "schemas"
COMMANDS = ("validate-ggraph", "pullback", "qmod-check", "intersect-boundary")
ENTRIES = [entry for entry in json.loads((TESTS / "golden" / "corpus.json").read_text())
           if entry["argv"][0] in COMMANDS]
REPLACEMENTS = (None, -1, 0, 1, 2, 0.5, True, False, "", "x", "1/2", [], {})
# Errors that mean the input reached code that never checked it
INTERNAL_ERRORS = ("TypeError", "KeyError", "AttributeError", "IndexError")


def _paths(value, path=()):
    """The path of every field of a JSON value, at any depth, the root first."""
    yield path
    if isinstance(value, dict):
        for key in value:
            yield from _paths(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _parent(value, path):
    for key in path[:-1]:
        value = value[key]
    return value


@st.composite
def mutated_inputs(draw):
    """(argv, files): a golden entry's argv ("@name" stands for file name)
    and its input files with one change."""
    entry = draw(st.sampled_from(ENTRIES))
    argv, files = list(entry["argv"]), copy.deepcopy(entry["files"])
    name = draw(st.sampled_from(sorted(files)))
    change = draw(st.sampled_from(("replace", "delete", "missing path")))
    if change == "missing path":
        argv = [f"@{name}-missing" if arg == f"@{name}" else arg for arg in argv]
        return argv, files
    paths = list(_paths(files[name]))
    path = draw(st.sampled_from(paths if change == "replace" else paths[1:] or [()]))
    if not path:
        files[name] = draw(st.sampled_from(REPLACEMENTS))
    elif change == "replace":
        _parent(files[name], path)[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    else:
        del _parent(files[name], path)[path[-1]]
    return argv, files


def _check_schema(name: str, payload: dict) -> None:
    jsonschema.validate(payload, json.loads((SCHEMAS / f"{name}.schema.json").read_text()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_inputs())
def test_mutated_inputs_exit_0_or_2_with_schema_valid_output(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            Path(tmp, f"{name}.json").write_text(json.dumps(content))
        argv = [str(Path(tmp, f"{arg[1:]}.json")) if arg.startswith("@") else arg
                for arg in argv]
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
    assert code in (0, 2)
    payload = json.loads(out.getvalue())
    if "error" in payload:
        _check_schema("error", payload)
        assert not payload["error"].startswith(INTERNAL_ERRORS), payload["error"]
    else:
        _check_schema(argv[0], payload)
