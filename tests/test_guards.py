"""Source-level guards: no bare asserts, and no benchmark counter left
pointing at a name covercalc no longer has."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

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
