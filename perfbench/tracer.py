"""Traced execution of one CLI job, and the arithmetic on its spans.

Run as a child process:

    python perfbench/tracer.py TRACE_OUT JOB_ID CLI_ARG...

It wraps the public functions and methods of every covercalc module from
outside, calls `covercalc.cli.main(argv)` with stdout captured, copies the
captured stdout to its own, and writes spans and counters to TRACE_OUT.

A span is recorded only where a call crosses from one layer (module) into
another; a call inside the same layer only counts.  A layer's self time is
the same either way: nested spans of one layer cover no time of another.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import sys
import traceback
from collections import Counter
from contextlib import redirect_stdout
from time import perf_counter

PACKAGE = "covercalc"
LAYERS = ("cli", "delliptic", "qmod", "exact", "graphs", "mbar", "gcover", "groups", "hurwitz")
# Special methods that per-layer counters need, beyond the public ones.
DUNDERS = {
    ("exact", "QSeries", "__mul__"),
    ("groups", "FiniteGroup", "__contains__"),
    ("groups", "FiniteGroup", "__post_init__"),
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.counters = Counter()
        self.spans = []              # (name, start, end, parent index or -1)
        self.layer = None
        self.open = -1


# Derived counters, observed after a wrapped call returns:
# observe(tracer, args, result).
def _count_len(counter):
    def observe(t, args, result):
        t.counters[counter] += len(result)
    return observe


def _generic_ab(t, args, result):
    t.counters["graphs.generic_ab.triples"] += len(result)
    if t.layer == "gcover":
        t.counters["gcover.intersect.triples_in"] += len(result)


def _solve_cells(t, args, result):
    rows = args[0]
    t.counters["qmod.solve.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _elements_built(t, args, result):
    t.counters["groups.elements_built"] += len(args[0].elements)


def _transitive_kept(t, args, result):
    t.counters["hurwitz.transitive.kept"] += bool(result)


def _pushforward_terms(t, args, result):
    t.counters["mbar.pushforward.terms"] += len(result.terms)


OBSERVERS = {
    "graphs.enumerate_stable_graphs": _count_len("graphs.stable_graphs.returned"),
    "graphs.enumerate_morphisms": _count_len("graphs.morphisms.returned"),
    "graphs.enumerate_generic_AB": _generic_ab,
    "gcover.boundary_intersection_H": _count_len("gcover.intersect.terms_kept"),
    "gcover.validate_admissible_g_graph": _count_len("gcover.validate.violations"),
    "mbar.boundary_intersection_pushforward": _pushforward_terms,
    "delliptic.delta00_contributions": _count_len("delliptic.ledger.rows"),
    "delliptic.delta01_contributions": _count_len("delliptic.ledger.rows"),
    "qmod.solve_exact": _solve_cells,
    "qmod.quasimodular_basis": _count_len("qmod.basis.size"),
    "groups.FiniteGroup.__post_init__": _elements_built,
    "hurwitz.is_transitive": _transitive_kept,
}


def _wrap(t: Tracer, layer: str, name: str, fn):
    observe = OBSERVERS.get(name)
    calls, spans = t.calls, t.spans

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        if t.layer == layer:
            result = fn(*args, **kwargs)
        else:
            outer, parent = t.layer, t.open
            index = len(spans)
            spans.append(None)
            t.layer, t.open = layer, index
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                t.layer, t.open = outer, parent
        if observe is not None:
            observe(t, args, result)
        return result

    return wrapper


def _wrappable(obj) -> bool:
    if hasattr(obj, "cache_info"):          # lru_cache: wrap on the outside
        return True
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def install(t: Tracer) -> dict:
    """Wrap every layer's public functions and methods in place.

    Every module attribute bound to a wrapped function object is rebound,
    so `from ... import` copies in other modules are wrapped too.  Returns
    the lru_cache objects by traced name, for cache_info() deltas.
    """
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    replaced = {}
    caches = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(t, layer, obj)
            elif _wrappable(obj):
                name = f"{layer}.{attr}"
                replaced[id(obj)] = _wrap(t, layer, name, obj)
                if hasattr(obj, "cache_info"):
                    caches[name] = obj
    for module_name, module in list(sys.modules.items()):
        if module_name == PACKAGE or module_name.startswith(PACKAGE + "."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
    return caches


def _wrap_class(t: Tracer, layer: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        public = not attr.startswith("_") or (layer, cls.__name__, attr) in DUNDERS
        if not public:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, staticmethod) and _wrappable(raw.__func__):
            setattr(cls, attr, staticmethod(_wrap(t, layer, name, raw.__func__)))
        elif isinstance(raw, classmethod) and _wrappable(raw.__func__):
            setattr(cls, attr, classmethod(_wrap(t, layer, name, raw.__func__)))
        elif _wrappable(raw):
            setattr(cls, attr, _wrap(t, layer, name, raw))


# ---------------------------------------------------------------------------
# span arithmetic, used by the parent on the written spans


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict:
    """Per-layer self time: each span's duration minus the part of it that
    its child spans cover.  `spans` holds (name, start, end, parent)."""
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        inner = [(max(a, start), min(b, end)) for a, b in children.get(index, ())]
        out[layer_of(name)] += (end - start) - _covered([iv for iv in inner if iv[0] < iv[1]])
    return dict(out)


# ---------------------------------------------------------------------------


def run(trace_out: str, job_id: str, argv: list) -> int:
    t = Tracer()
    caches = install(t)
    before = {name: fn.cache_info() for name, fn in caches.items()}
    cli = importlib.import_module(f"{PACKAGE}.cli")
    captured = io.StringIO()
    try:
        with redirect_stdout(captured):
            code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.write(captured.getvalue())
    sys.stdout.flush()
    cache = {}
    for name, fn in caches.items():
        after = fn.cache_info()
        cache[name] = [after.hits - before[name].hits, after.misses - before[name].misses]
    names = sorted({s[0] for s in t.spans if s is not None})
    index = {n: i for i, n in enumerate(names)}
    record = {
        "job": job_id,
        "names": names,
        "spans": [[index[n], a, b, p] for n, a, b, p in t.spans],
        "calls": dict(t.calls),
        "counters": dict(t.counters),
        "cache": cache,
    }
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


def read_trace(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    names = record["names"]
    record["spans"] = [(names[i], a, b, p) for i, a, b, p in record["spans"]]
    return record


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
