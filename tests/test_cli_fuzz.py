"""Fuzz `main()` with mutated golden-corpus inputs.

Each example takes one golden entry and changes one thing.  Either a
JSON-reading command gets a changed input file: a field at any depth becomes
null, a number, a bool, a string, [] or {}; a field is deleted; or an input
path names no file.  Or any command gets a changed command line: one option
value becomes "", "x", "-1", "0", "1.5", "[]" or "null", or one option is
dropped.  Whatever the input, the command must exit 0 or 2 with
schema-valid JSON, and an error must be a domain or usage error, not an
internal error.  No replacement is large enough to make a job run long.
"""

from __future__ import annotations

import copy
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import jsonschema
from hypothesis import given, settings, strategies as st

from covercalc.cli import main

TESTS = Path(__file__).resolve().parent
SCHEMAS = TESTS.parent / "schemas"
GOLDEN = json.loads((TESTS / "golden" / "corpus.json").read_text())
COMMANDS = ("validate-ggraph", "pullback", "qmod-check", "intersect-boundary", "intersect-ggraph")
ENTRIES = [entry for entry in GOLDEN if entry["argv"][0] in COMMANDS]
REPLACEMENTS = (None, -1, 0, 1, 2, 0.5, True, False, "", "x", "1/2", [], {})
ARGV_VALUES = ("", "x", "-1", "0", "1.5", "[]", "null")


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


def _argv_changes(argv: list[str]) -> list[list[str]]:
    """Every command line with one option value replaced from ARGV_VALUES or
    one option dropped; an option is a flag, a flag and its value, or a
    positional argument."""
    out, i = [], 1
    while i < len(argv):
        takes_value = (argv[i].startswith("--") and i + 1 < len(argv)
                       and not argv[i + 1].startswith("--"))
        end = i + 2 if takes_value else i + 1
        out.append(argv[:i] + argv[end:])
        if takes_value or not argv[i].startswith("--"):
            out += [argv[:end - 1] + [value] + argv[end:] for value in ARGV_VALUES]
        i = end
    return out


@st.composite
def mutated_argvs(draw):
    """(argv, files): a golden entry with one change to its command line."""
    entry = draw(st.sampled_from(GOLDEN))
    return draw(st.sampled_from(_argv_changes(entry["argv"]))), entry["files"]


def _check_schema(name: str, payload: dict) -> None:
    jsonschema.validate(payload, json.loads((SCHEMAS / f"{name}.schema.json").read_text()))


def _assert_exit_0_or_2_with_schema_valid_output(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            Path(tmp, f"{name}.json").write_text(json.dumps(content))
        argv = [str(Path(tmp, f"{arg[1:]}.json")) if arg.startswith("@") else arg
                for arg in argv]
        out = io.StringIO()
        # a dropped --input reads stdin, here empty
        with redirect_stdout(out), mock.patch.object(sys, "stdin", io.StringIO()):
            code = main(argv)
    if code == 0 and "--human" in argv:
        assert out.getvalue().startswith("   d  "), out.getvalue()
        return
    payload = json.loads(out.getvalue())
    assert code in (0, 2), payload
    if "error" in payload:
        _check_schema("error", payload)
        assert not payload["error"].startswith("internal"), payload["error"]
    else:
        _check_schema(argv[0], payload)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_inputs())
def test_mutated_inputs_exit_0_or_2_with_schema_valid_output(case):
    _assert_exit_0_or_2_with_schema_valid_output(*case)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_argvs())
def test_mutated_command_lines_exit_0_or_2_with_schema_valid_output(case):
    _assert_exit_0_or_2_with_schema_valid_output(*case)
