"""Command-line interface: JSON in, JSON out, exact numbers as "p/q".

Exit codes: 0 on success; 2 on an `errors.InputError` (malformed input or
command line, a validation failure) and on nothing else; 3 on an
`InvariantError` (which survives `python -O` where a bare assert would not)
or any other exception, printed as "internal error: <Type>: <message>".
Output is deterministic (sorted keys), so regression tests can diff bytes.

Output goes through one writer, `_emit`, except `delliptic --human`'s text
table, which `_print_delliptic_table` writes with `print`.  `_emit`'s bytes
are exactly those of `json.dumps(payload, sort_keys=True, indent=2) + "\n"`
for every type a command emits: `str` (escaped by
`_json.encode_basestring_ascii`, which `json.dumps` uses), `int`, `bool`,
`None`, lists, tuples, and dicts with `str` keys.  Any other type is an
`InvariantError` (a bug: no command emits one; blocks written before it
stay written).  Text is produced in one of two ways:

- a d-elliptic ledger's rows, which `cmd_delliptic` hands over as a
  `_LedgerRows`, are printed by `_write_ledger_rows`: each row straight from
  its integers through one template per indent, the bytes `json.dumps` gives
  the row's object (`StratumContribution` says what each value is);
- everything else goes through the recursive `_write_json`.

Both append pieces to one list, a piece being a token or a whole row, and
write the list to stdout as one block once it holds `_BLOCK` pieces.  So a
multi-megabyte ledger is never held as one string, as a list of all its
tokens or as one object per row, and a block of the longest rows the CLI
prints stays under 1 MB.  The writer keeps its own blocks because stdout
need not buffer them: under `PYTHONUNBUFFERED` (or `python -u`) every
`write` reaches the file, and a write per piece is measurably slower.

Each call is a fresh process, so importing is part of every call's cost.
This module imports no layer at load time: each command imports the layers
it uses, and the exception classes every layer raises live in
`covercalc.errors`, which imports nothing; only the two JSON readers,
`_load_json` and `hurwitz-count`, import `json` and its decoder.

A call ends in `run`, the process entry of `python -m covercalc.cli` and of
the `covercalc` script: it takes `main`'s exit code (0 after `--help`),
flushes stdout and stderr, and leaves through `os._exit`, so the interpreter
does not tear down the modules and objects the call built, which often takes
longer than the call's own computation.  That is safe because a call's only
effects are its stdout bytes, its stderr bytes and its exit status: the
package opens no file for writing, starts no thread and registers no
`atexit` hook.  `main` itself returns its code and never exits, for callers
in the same process.

If stdout refuses a write or the flush (a closed pipe, a full disk), or
the call starts with stdout closed, the call exits 3, writes nothing more
to stdout and prints one stderr line, "internal error: <Type>: <message>";
a failing or closed stderr is ignored.  `main` lets that `OSError` through
to `run`, and so does `--help` (`_Parser._print_message`): every read
failure is a `UsageError`, so an `OSError` reaching `main` is stdout's.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from _json import encode_basestring_ascii as _json_string

from covercalc.errors import InputError, InvariantError, PipelineError, UsageError

# Pieces of output text gathered before they are written to stdout as one block.
_BLOCK = 1024


class _LedgerRows:
    """A d-elliptic ledger's checked rows (`StratumContribution`s) in printed
    order, which `_write_json` prints as a list of row objects."""

    __slots__ = ("rows",)

    def __init__(self, rows: list) -> None:
        self.rows = rows


def _emit(payload: dict) -> None:
    """Write `payload` as indented JSON with sorted keys, and a newline."""
    out = sys.stdout
    pieces: list[str] = []
    _write_json(payload, "\n", pieces, out.write)
    pieces.append("\n")
    out.write("".join(pieces))


def _write_json(value, newline: str, pieces: list[str], write) -> None:
    """Append the JSON text of `value` to `pieces`, its nested lines indented
    from `newline`; pass full blocks of pieces to `write`."""
    kind = type(value)
    if kind is str:
        pieces.append(_json_string(value))
    elif kind is int:
        pieces.append(int.__repr__(value))
    elif value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif kind is dict:
        if not value:
            pieces.append("{}")
            return
        for key in value:
            if type(key) is not str:
                raise InvariantError(f"JSON object key {key!r} is not a string")
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            pieces.append(f"{lead}{_json_string(key)}: ")
            _write_json(value[key], inner, pieces, write)
            lead = "," + inner
        pieces.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            pieces.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            pieces.append(lead)
            _write_json(item, inner, pieces, write)
            lead = "," + inner
            if len(pieces) >= _BLOCK:
                write("".join(pieces))
                pieces.clear()
        pieces.append(newline + "]")
    elif kind is _LedgerRows:
        _write_ledger_rows(value.rows, newline, pieces, write)
    else:
        raise InvariantError(f"no JSON form for a {kind.__name__} in the output")


def _write_ledger_rows(rows: list, newline: str, pieces: list[str], write) -> None:
    """Append the JSON text of a ledger's rows, as a list indented from
    `newline`, to `pieces`, one piece per row; pass full blocks of pieces to
    `write`.  Each row is formatted from its integers through one template:
    the mark put back into count and total, ratios in lowest terms, stratum
    and subcase escaped as `_write_json` escapes a str."""
    from covercalc.exact import ratio_to_str

    if not rows:
        pieces.append("[]")
        return
    item = newline + "  "
    key = item + "  "
    param = key + "  "
    template = (
        "{}{{" + key + '"count": "{}",' + key + '"excess_value": {},'
        + key + '"multiplicity": "{}",' + key + '"params": [' + param + "{}" + key + "],"
        + key + '"reduced_degree": "{}",' + key + '"stratum": {},' + key + '"subcase": {},'
        + key + '"total": "{}"' + item + "}}"
    ).format
    between_params = "," + param
    lead = "[" + item
    for (stratum, subcase, params, mark, count_num, count_den, reduced, mult_num, mult_den,
         excess_num, excess_den, normalized_total) in rows:
        pieces.append(template(
            lead,
            ratio_to_str(mark * count_num, count_den),
            "null" if excess_num is None else f'"{ratio_to_str(excess_num, excess_den)}"',
            ratio_to_str(mult_num, mult_den),
            between_params.join(map(str, params)),
            reduced,
            _json_string(stratum),
            _json_string(subcase),
            mark * normalized_total,
        ))
        lead = "," + item
        if len(pieces) >= _BLOCK:
            write("".join(pieces))
            pieces.clear()
    pieces.append(newline + "]")


def _load_json(path: str) -> dict:
    """The JSON value in file `path` ("-": stdin); an unreadable path or
    nesting too deep for the decoder is a usage error naming the path."""
    import json

    try:
        if path == "-":
            return _decode(json.load, sys.stdin, "stdin")
        with open(path, "r", encoding="utf-8") as handle:
            return _decode(json.load, handle, repr(path))
    except OSError as err:
        raise UsageError(f"cannot read {path!r}: {err.strerror or err}") from None


def _decode(load, source, name: str):
    try:
        return load(source)
    except RecursionError:
        raise UsageError(f"{name} nests JSON too deeply to decode") from None
    except ValueError as err:
        raise UsageError(f"{name} is not JSON: {err}") from None


def _print_any_int() -> None:
    """Let int -> str conversion print an exact result of any length.

    Python (3.10.7 on) refuses to convert an int of more than 4300 digits
    either way.  That limit stays on while outside input is parsed: each
    command that prints a computed number lifts it once its inputs are read,
    and `main` restores the interpreter's setting before it returns.  Older
    Pythons have no limit to lift."""
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)


def cmd_integrate(args) -> int:
    from covercalc.exact import rat_to_str
    from covercalc.mbar import integrate_psi

    value = integrate_psi(args.genus, args.exponents)
    _print_any_int()
    _emit(
        {
            "genus": args.genus,
            "exponents": args.exponents,
            "value": rat_to_str(value),
        }
    )
    return 0


def cmd_intersect_boundary(args) -> int:
    from covercalc.graphs import StableGraph
    from covercalc.mbar import boundary_intersection_pushforward

    a = StableGraph.from_json(_load_json(args.a))
    b = StableGraph.from_json(_load_json(args.b))
    cls = boundary_intersection_pushforward(a, b)
    _emit(
        {
            "ambient": {"genus": a.genus(), "legs": a.n_legs},
            "pushforward_class": cls.to_json(),
            "term_count": len(cls.terms),
        }
    )
    return 0


def cmd_validate_ggraph(args) -> int:
    from covercalc.gcover import AdmissibleGGraph, validate_admissible_g_graph

    gg = AdmissibleGGraph.from_json(_load_json(args.input))
    violations = validate_admissible_g_graph(gg)
    payload = {
        "ok": not violations,
        "violations": [v.to_json() for v in violations],
    }
    _emit(payload)
    return 0 if not violations else 2


def cmd_hurwitz_count(args) -> int:
    import json

    from covercalc.exact import rat_to_str
    from covercalc.hurwitz import hurwitz_cover_count

    types = _decode(json.loads, args.types, "--types")
    count = hurwitz_cover_count(args.degree, types, weighted=args.weighted)
    _print_any_int()
    _emit(
        {
            "degree": args.degree,
            "types": types,
            "weighted": args.weighted,
            "count": rat_to_str(count),
        }
    )
    return 0


def cmd_intersect_ggraph(args) -> int:
    from covercalc.gcover import AdmissibleGGraph, boundary_intersection_H

    a = AdmissibleGGraph.from_json(_load_json(args.a))
    b = AdmissibleGGraph.from_json(_load_json(args.b))
    terms = boundary_intersection_H(a, b)
    _emit(
        {
            "term_count": len(terms),
            "terms": [
                {
                    "gamma": t.gamma.to_json(),
                    "excess_edge_orbits": [list(e) for e in t.excess_orbit_edges],
                    "to_a": {
                        "vertex_map": list(t.to_a.vertex_map),
                        "half_edge_map": list(t.to_a.half_edge_map),
                    },
                    "to_b": {
                        "vertex_map": list(t.to_b.vertex_map),
                        "half_edge_map": list(t.to_b.half_edge_map),
                    },
                }
                for t in terms
            ],
        }
    )
    return 0


def cmd_pullback(args) -> int:
    from covercalc.gcover import pullback_psi_kappa_hurwitz

    _emit(pullback_psi_kappa_hurwitz(_load_json(args.input)).to_json())
    return 0


def cmd_delliptic(args) -> int:
    from covercalc.delliptic import (
        MAX_DMAX, MAX_LEDGER_DMAX, degree_ledger, pairing_series, quasimodularity_report,
    )
    from covercalc.exact import rat_to_str

    # --human prints only the values table, so it builds no ledger rows, no
    # series and no quasimodularity report
    rows = args.ledger and not args.human
    if args.dmax < 2:
        raise PipelineError("--dmax must be at least 2")
    if args.dmax > MAX_DMAX:
        raise PipelineError(f"--dmax must be at most {MAX_DMAX}, the bound on the degrees walked")
    if rows and args.dmax > MAX_LEDGER_DMAX:
        raise PipelineError(
            f"--dmax must be at most {MAX_LEDGER_DMAX} with --ledger, "
            "the bound on the ledger rows held in memory"
        )
    _print_any_int()
    values, ledgers, numbers00, numbers01 = {}, {}, [], []
    for d in range(2, args.dmax + 1):
        ledger = degree_ledger(d, rows=rows)
        values[str(d)] = {
            "delta00": rat_to_str(ledger.delta00),
            "delta01": rat_to_str(ledger.delta01),
            "delta00_aggregates": [rat_to_str(x) for x in ledger.delta00_aggregates],
        }
        if rows:
            ledgers[str(d)] = {
                "delta00": _LedgerRows(ledger.delta00_rows),
                "delta01": _LedgerRows(ledger.delta01_rows),
            }
        numbers00.append(ledger.delta00)
        numbers01.append(ledger.delta01)
    if args.human:
        _print_delliptic_table(values)
        return 0
    payload: dict = {"dmax": args.dmax, "values": values}
    if rows:
        payload["ledgers"] = ledgers
    s00, s01 = pairing_series(numbers00), pairing_series(numbers01)
    if args.series:
        payload["series"] = {
            "delta00_normalized": s00.to_json(),
            "delta01_normalized": s01.to_json(),
        }
    if args.qmod:
        payload["quasimodularity"] = quasimodularity_report(s00, s01).to_json()
    _emit(payload)
    return 0


def _print_delliptic_table(values: dict) -> None:
    header = f"{'d':>4} {'delta00':>16} {'delta01':>16}"
    print(header)
    print("-" * len(header))
    for d in sorted(values, key=int):
        row = values[d]
        print(f"{d:>4} {row['delta00']:>16} {row['delta01']:>16}")


def cmd_qmod_check(args) -> int:
    from covercalc.exact import QSeries
    from covercalc.qmod import is_quasimodular

    data = _load_json(args.input)
    series = QSeries.from_json(data)
    _print_any_int()
    report = is_quasimodular(
        series, weight_bound=args.weight, fit_len=args.fit, holdout_len=args.holdout
    )
    _emit(report.to_json())
    return 0


def _exponents(text: str) -> list[int]:
    """The psi exponents of `integrate --exponents`: every comma-separated
    entry an integer, an empty one refused rather than skipped."""
    entries = text.split(",")
    for entry in entries:
        if re.fullmatch(r"-?[0-9]+", entry) is None:
            raise argparse.ArgumentTypeError(f"exponent {entry!r} in {text!r} is not an integer")
    return [int(entry) for entry in entries]


def _refuse_usage(parser: argparse.ArgumentParser, message: str):
    raise UsageError(message)


def _write_message(parser: argparse.ArgumentParser, message: str, file=None) -> None:
    if message:  # argparse's own version ignores a failed write
        (file or sys.stderr).write(message)


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError where argparse would print
    usage to stderr and exit, so that `main` reports it as JSON.  argparse
    reports every refusal through `error`, and makes subcommand parsers of
    the parser's own class.  `--help` still prints and exits 0, and a failed
    write of its text reaches `run`."""

    error = _refuse_usage
    _print_message = _write_message


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covercalc",
        description="Exact intersection calculus for admissible cover moduli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="top-degree psi integral on M_{g,n}")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--exponents", type=_exponents, required=True,
                   help="comma-separated psi exponents, one per marked point")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("intersect-boundary", help="intersect two boundary strata")
    p.add_argument("--a", required=True, help="stable graph JSON file (or -)")
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_intersect_boundary)

    p = sub.add_parser("validate-ggraph", help="check admissibility conditions")
    p.add_argument("input", help="admissible G-graph JSON file (or -)")
    p.set_defaults(func=cmd_validate_ggraph)

    p = sub.add_parser("hurwitz-count", help="count monodromy tuples")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--types", required=True, help="JSON list of partitions")
    p.add_argument("--weighted", action="store_true",
                   help="weight classes by 1/#centralizer")
    p.set_defaults(func=cmd_hurwitz_count)

    p = sub.add_parser("intersect-ggraph", help="intersect two cover boundary strata")
    p.add_argument("--a", required=True, help="admissible G-graph JSON file")
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_intersect_ggraph)

    p = sub.add_parser("pullback", help="psi/kappa pullback formula for a named map")
    p.add_argument("input", help="JSON payload with kind, cls, and group data")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("delliptic", help="genus-2 d-elliptic boundary pairings")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--series", action="store_true", help="emit normalized q-series")
    p.add_argument("--ledger", action="store_true", help="emit per-stratum ledgers")
    p.add_argument("--qmod", action="store_true",
                   help="run the quasimodularity membership check")
    p.add_argument("--human", action="store_true", help="aligned table output")
    p.set_defaults(func=cmd_delliptic)

    p = sub.add_parser("qmod-check", help="exact quasimodularity membership")
    p.add_argument("--weight", type=int, default=4)
    p.add_argument("--fit", type=int, default=20)
    p.add_argument("--holdout", type=int, default=18)
    p.add_argument("--input", default="-", help="q-series JSON file (default stdin)")
    p.set_defaults(func=cmd_qmod_check)

    return parser


def main(argv=None) -> int:
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as err:
        _emit({"error": f"{type(err).__name__}: {err}"})
        return 2
    except InvariantError as err:
        _emit({"error": f"internal invariant breach: {err}"})
        return 3
    except OSError:
        raise  # stdout failed: `run` reports it on stderr
    except Exception as err:
        _emit({"error": f"internal error: {type(err).__name__}: {err}"})
        return 3
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def run():
    """End the process with `main`'s exit code once stdout and stderr are
    flushed, skipping the interpreter's teardown (see the module docstring)."""
    report = ""
    try:
        if sys.stdout is None:  # the call started with stdout closed
            raise OSError("stdout is closed")
        try:
            status = main()
        except SystemExit as done:  # argparse's --help
            status = done.code
        sys.stdout.flush()
    except OSError as err:
        status, report = 3, f"internal error: {type(err).__name__}: {err}\n"
    try:
        if sys.stderr is not None:  # None when the call started with it closed
            sys.stderr.write(report)
            sys.stderr.flush()
    except OSError:
        pass  # no stream is left to report it on
    os._exit(status)


if __name__ == "__main__":
    run()
