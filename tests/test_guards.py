"""Source-level guards: no bare asserts, no benchmark counter left
pointing at a name covercalc no longer has, no package code that only
tests reach, no process exit outside the CLI's entry and nothing left for
the teardown it skips, no layer a command does not use loaded by it, no
user error class the CLI would let through, and no bad input refused with
a builtin error."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "covercalc"


def test_no_assert_statements_in_the_package():
    # invariants must raise InvariantError, which `python -O` keeps
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _load_tracer():
    path = REPO / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tracer, name: str) -> bool:
    """Whether the tracer's install() wraps `name` (layer.function or
    layer.Class.method), so a counter keyed on it can be nonzero."""
    layer, *path = name.split(".")
    if layer not in tracer.LAYERS:
        return False
    module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
    owner = vars(module).get(path[0])
    if path[0].startswith("_") or getattr(owner, "__module__", None) != module.__name__:
        return False
    if len(path) == 1:
        return tracer._wrappable(owner)
    if len(path) != 2 or not inspect.isclass(owner) or path[1] not in vars(owner):
        return False
    if path[1].startswith("_") and (layer, path[0], path[1]) not in tracer.DUNDERS:
        return False
    raw = vars(owner)[path[1]]
    return tracer._wrappable(getattr(raw, "__func__", raw))


def test_benchmark_counters_name_traced_functions():
    tracer = _load_tracer()
    names = set(tracer.OBSERVERS)
    names |= {".".join(d) for d in tracer.DUNDERS}
    names |= set(re.findall(r'calls\["([^"]+)"\]', (REPO / "perfbench" / "run.py").read_text()))
    assert {"delliptic.delta00_contributions", "groups.FiniteGroup.__contains__",
            "groups.coset_index", "hurwitz.is_transitive"} <= names
    assert sorted(n for n in names if not _traced(tracer, n)) == []


# Definitions no command reaches yet, kept for the H-tautological integral
# (ROADMAP item 4) or the character-theoretic Hurwitz numbers (item 5).
# A name leaves this list once a command reaches it, or with its definition
# once no planned item calls it (item 17).  Item 4's excess factor is
# `mbar._expand_excess` over an `HBoundaryTerm`'s `excess_orbit_edges`.
NOT_YET_REACHED = {
    "gcover.restrict_graph": "item 4",
    "gcover.corestrict_graph": "item 4",
    "gcover.restriction_boundary_exponents": "item 4",
    "gcover.corestriction_boundary_multiplicity": "item 4",
    "gcover.wrap_trivial_group": "item 4",
    "mbar.integrate_stratum_class": "item 4",
    "mbar.pullback_by_boundary": "item 4",
    "groups.symmetric_group": "items 4/5 build S_d and Z/n",
    "groups.cyclic_group": "items 4/5 build S_d and Z/n",
}


def _package_definitions():
    """module.name and module.Class.method of every def and class, with the
    module-level statements that run on import."""
    defs, on_import = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                on_import.append(node)
                continue
            defs[f"{path.stem}.{node.name}"] = node
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef):
                    defs[f"{path.stem}.{node.name}.{sub.name}"] = sub
    return defs, on_import


def _is_dunder(qual: str) -> bool:
    name = qual.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def _reached(defs, on_import, seeds) -> set[str]:
    """Every definition whose name occurs in code reached from the seeds.

    A name or attribute matching a definition's last component counts as a
    call, so the walk over-approximates: it can miss dead code, but never
    flags live code.  Reaching a class runs its body and its dunder methods.
    """
    by_name = {}
    for qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)

    def mentioned(nodes):
        names = {x.id if isinstance(x, ast.Name) else x.attr
                 for node in nodes for x in ast.walk(node)
                 if isinstance(x, (ast.Name, ast.Attribute))}
        return [qual for name in names for qual in by_name.get(name, ())]

    reached, todo = set(), [*seeds, *mentioned(on_import)]
    while todo:
        qual = todo.pop()
        if qual in reached:
            continue
        reached.add(qual)
        node = defs[qual]
        if isinstance(node, ast.ClassDef):
            methods = [f"{qual}.{sub.name}" for sub in node.body if isinstance(sub, ast.FunctionDef)]
            todo += [m for m in methods if _is_dunder(m)]
            body = [sub for sub in node.body if not isinstance(sub, ast.FunctionDef)]
            todo += mentioned(body + node.bases + node.decorator_list)
        else:
            todo += mentioned([node])
    return reached


def test_only_cli_reachable_definitions_in_the_package():
    defs, on_import = _package_definitions()
    commands = [q for q in defs if q.startswith("cli.") and q.count(".") == 1]
    assert set(NOT_YET_REACHED) <= set(defs)
    # an entry a command now reaches leaves the list
    assert set(NOT_YET_REACHED) & _reached(defs, on_import, commands) == set()
    reached = _reached(defs, on_import, commands + list(NOT_YET_REACHED))
    assert [q for q in defs if q not in reached and not _is_dunder(q)] == []


def test_only_the_process_entry_ends_the_process():
    # `cli.main` returns its code to callers in the same process; only
    # `cli.run`, the entry of `python -m covercalc.cli` and of the installed
    # script, ends the process, through `os._exit`
    exits = [
        f"{path.stem}.{getattr(top, 'name', top.lineno)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("os._exit", "sys.exit", "exit", "quit")
    ]
    assert exits == ["cli.run"]
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"covercalc": "covercalc.cli:run"}


# Modules whose use leaves work for the interpreter's teardown: exit hooks,
# threads and child processes, temporary files, logging handlers to flush.
TEARDOWN_MODULES = {"atexit", "threading", "multiprocessing", "concurrent", "subprocess",
                    "tempfile", "logging"}


def test_no_package_code_leaves_work_for_the_interpreter_teardown():
    # `cli.run` ends the process with `os._exit`, which runs no exit hook,
    # joins no thread and flushes no file but stdout and stderr
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                if any(not (isinstance(m, ast.Constant) and m.value in ("r", "rb")) for m in modes):
                    found.append(f"{path.name}:{node.lineno} opens a file to write")
                continue
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {name}" for name in names
                      if name.partition(".")[0] in TEARDOWN_MODULES]
    assert found == []


_LOADED_MODULES = """
import io, json, sys
from contextlib import redirect_stdout
from covercalc.cli import main
argv = json.loads(sys.argv[1])
if argv is not None:
    with redirect_stdout(io.StringIO()):
        main(argv)
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "covercalc")))
"""


def _covercalc_modules_loaded(argv) -> set[str]:
    """The covercalc modules a fresh interpreter holds after importing the
    CLI and, unless argv is None, running one command."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", _LOADED_MODULES, json.dumps(argv)],
                          capture_output=True, text=True, env=env, check=True)
    return {name.removeprefix("covercalc.") for name in json.loads(done.stdout)}


def test_each_command_imports_only_its_layers():
    # every CLI call is a fresh process, so a layer it does not use is pure cost
    assert _covercalc_modules_loaded(None) == {"covercalc", "cli", "errors"}
    hurwitz = _covercalc_modules_loaded(
        ["hurwitz-count", "--degree", "4", "--types", "[[4], [2, 1, 1], [3, 1]]"])
    assert "hurwitz" in hurwitz
    assert hurwitz & {"graphs", "gcover", "mbar", "delliptic", "qmod"} == set()
    integrate = _covercalc_modules_loaded(["integrate", "--genus", "1", "--exponents", "1"])
    assert "mbar" in integrate
    assert integrate & {"graphs", "gcover", "groups", "hurwitz", "delliptic", "qmod"} == set()
    delliptic = _covercalc_modules_loaded(["delliptic", "--dmax", "8", "--ledger", "--series"])
    assert "delliptic" in delliptic
    assert delliptic & {"graphs", "gcover", "groups", "hurwitz", "mbar"} == set()


# no json import here: the harness must not load what the test looks for
_JSON_LOADED = """
import io, sys
from contextlib import redirect_stdout
from covercalc.cli import main
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m.partition(".")[0] == "json"))
"""


@pytest.mark.parametrize("argv", [
    ["integrate", "--genus", "1", "--exponents", "1"],
    ["delliptic", "--dmax", "40", "--series", "--qmod"],
    ["delliptic", "--dmax", "8", "--ledger"],
    ["delliptic", "--dmax", "8", "--human"],
], ids=["integrate", "delliptic-qmod", "delliptic-ledger", "delliptic-human"])
def test_commands_that_read_no_json_load_no_json_module(argv):
    # importing json and its decoder costs about 2 ms of each call, a fresh
    # process; only `_load_json` and `hurwitz-count --types` decode JSON
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", _JSON_LOADED, *argv],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "0 []\n"


_DATACLASSES_LOADED = """
import io, json, sys
from contextlib import redirect_stdout
from covercalc.cli import main
with redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, "dataclasses" in sys.modules]))
"""


def test_no_command_loads_dataclasses(tmp_path):
    # importing dataclasses (and inspect with it) costs 7-11 ms of each call,
    # which is a fresh process; the records are NamedTuples or FrozenRecords
    from gg_factory import _z2_gp

    inputs = {
        "series": {"order": 40, "coefficients": ["1"] + ["0"] * 40},
        "graph": {"vertex_genera": [1, 1], "half_edge_vertex": [0, 1],
                  "involution_pairs": [[0, 1]], "legs": []},
        "ggraph": _z2_gp(1).to_json(),
        "pullback": {"kind": "corestriction", "cls": "psi",
                     "group": {"degree": 4, "generators": [[2, 3, 4, 1]]},
                     "normal": [[3, 4, 1, 2]], "h": [2, 3, 4, 1]},
    }
    path = {}
    for name, payload in inputs.items():
        path[name] = str(tmp_path / f"{name}.json")
        Path(path[name]).write_text(json.dumps(payload))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for argv in (["delliptic", "--dmax", "2"], ["qmod-check", "--input", path["series"]],
                 ["integrate", "--genus", "1", "--exponents", "1"],
                 ["intersect-boundary", "--a", path["graph"], "--b", path["graph"]],
                 ["intersect-ggraph", "--a", path["ggraph"], "--b", path["ggraph"]],
                 ["validate-ggraph", path["ggraph"]],
                 ["pullback", path["pullback"]],
                 ["hurwitz-count", "--degree", "4", "--types", "[[4], [2, 1, 1], [3, 1]]"]):
        done = subprocess.run([sys.executable, "-c", _DATACLASSES_LOADED, json.dumps(argv)],
                              capture_output=True, text=True, env=env, check=True)
        assert json.loads(done.stdout) == [0, False], argv


def test_the_cli_catches_every_user_error_class():
    from covercalc import errors

    classes = [obj for obj in vars(errors).values()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__]
    assert errors.InvariantError in classes and len(classes) > 1
    assert not issubclass(errors.InvariantError, errors.InputError)
    assert [c.__name__ for c in classes
            if c is not errors.InvariantError and not issubclass(c, errors.InputError)] == []
    # the layers that raise them still export them
    for layer, name in [("groups", "GroupError"), ("groups", "NotNormalError"),
                        ("graphs", "GraphError"), ("mbar", "IntegralError"),
                        ("gcover", "CoverError"), ("gcover", "ActionError"),
                        ("hurwitz", "HurwitzError"), ("delliptic", "PipelineError"),
                        ("exact", "SeriesError"), ("qmod", "SeriesError"),
                        ("cli", "UsageError")]:
        assert getattr(importlib.import_module(f"covercalc.{layer}"), name) is getattr(errors, name)


BUILTIN_INPUT_ERRORS = {"ValueError", "TypeError", "KeyError"}
CATCH_ALLS = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    """The names an except clause catches; a bare `except:` catches BaseException."""
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id for t in types if isinstance(t, ast.Name)}


def test_bad_input_is_never_a_builtin_error():
    # cli.main maps errors.InputError, and nothing else, to exit 2, and reports
    # any other exception as an internal error: a layer that refused input
    # with a builtin error would report its caller's mistake as its own bug
    raised, catch_alls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id in BUILTIN_INPUT_ERRORS:
                        raised.append(f"{path.name}:{node.lineno} raises {exc.id}")
                elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                        ("json_fields", "json_list")):
                    passed = [a.id for a in node.args + [k.value for k in node.keywords]
                              if isinstance(a, ast.Name) and a.id in BUILTIN_INPUT_ERRORS]
                    raised += [f"{path.name}:{node.lineno} passes {name}" for name in passed]
                elif isinstance(node, ast.ExceptHandler) and _caught_names(node) & CATCH_ALLS:
                    catch_alls.append(where)
    assert raised == []
    assert catch_alls == ["cli.main"]
