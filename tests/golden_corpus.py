"""The golden stdout corpus: fixed CLI invocations and the digests of their output.

Each entry of `golden/corpus.json` holds the argv, the JSON input files the
argv names (an argument "@name" stands for the path of file "name"), the
exit code and the sha256 of stdout.  `tests/test_golden.py` replays every
entry and demands the same exit code and byte-identical stdout, so a
refactor that changes any emitted byte fails loudly.

The digests were captured from a known-good tree.  Recapture only when an
output is meant to change, and say which in the change log.  One command
rewrites this corpus and the gcover library corpus (`gcover_corpus.py`),
and first prints every entry whose exit code or digest changed and their
number out of all entries, then each changed library output (graph name and
output key) and their number out of all outputs:

    PYTHONPATH=src:tests python tests/golden_corpus.py

With --check it prints the same report, writes nothing, and exits 1 when
any entry or output changed (0 when none did):

    PYTHONPATH=src:tests python tests/golden_corpus.py --check
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"


def entry_argv(entry: dict, workdir: Path) -> list[str]:
    """Write one entry's input files to `workdir`; return its argv with each
    "@name" replaced by that file's path."""
    for name, content in entry["files"].items():
        (workdir / f"{name}.json").write_text(json.dumps(content))
    return [
        str(workdir / f"{arg[1:]}.json") if arg.startswith("@") else arg
        for arg in entry["argv"]
    ]


def run_entry(entry: dict, workdir: Path) -> tuple[int, str]:
    """Run one entry's argv in-process; return (exit code, stdout digest)."""
    from covercalc.cli import main

    argv = entry_argv(entry, workdir)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _group_json(degree: int, gens) -> dict:
    from covercalc.groups import perm_to_json

    return {"degree": degree, "generators": [perm_to_json(g) for g in gens]}


def _pullback_entries() -> list[tuple[str, list[str], dict]]:
    from covercalc.groups import perm_to_json, symmetric_group

    s4, s6 = symmetric_group(4), symmetric_group(6)
    v4 = [(1, 0, 3, 2), (2, 3, 0, 1)]
    a6 = [(1, 2, 0, 3, 4, 5), (1, 3, 2, 0, 4, 5), (1, 4, 2, 3, 0, 5), (1, 5, 2, 3, 4, 0)]
    out = []
    for label, group, normal, h in (
        ("s4-v4", s4, v4, (1, 2, 3, 0)),
        ("s6-a6", s6, a6, (1, 0, 3, 4, 2, 5)),
    ):
        base = {"group": _group_json(group.degree, group.generators)}
        core = dict(base, kind="corestriction", normal=[perm_to_json(g) for g in normal])
        forget = dict(base, kind="forgetful")
        for name, payload in (
            ("corestriction-psi", dict(core, cls="psi", h=perm_to_json(h))),
            ("corestriction-kappa", dict(core, cls="kappa")),
            ("forgetful-psi", dict(forget, cls="psi", h=perm_to_json(h))),
            ("forgetful-kappa", dict(forget, cls="kappa", index=2)),
        ):
            out.append((f"pullback/{label}/{name}", ["pullback", "@in"], {"in": payload}))
    # one payload per refusal, in the reader's order: the group, its normal
    # subgroup and h are parsed before the class, h's membership and the kind
    s4_json = _group_json(s4.degree, s4.generators)
    v4_json = [perm_to_json(g) for g in v4]
    cycle = perm_to_json((1, 2, 3, 0))
    for name, payload in (
        ("no group or normal", {"kind": "corestriction", "cls": "kappa"}),
        ("no group", {"kind": "corestriction", "cls": "psi", "normal": v4_json, "h": cycle}),
        ("no normal", {"kind": "corestriction", "cls": "kappa", "group": s4_json}),
        ("corestriction psi no h",
         {"kind": "corestriction", "cls": "psi", "group": s4_json, "normal": v4_json}),
        ("forgetful psi no h", {"kind": "forgetful", "cls": "psi", "group": s4_json}),
        ("forgetful kappa no index", {"kind": "forgetful", "cls": "kappa", "group": s4_json}),
        ("bad cls", {"kind": "restriction", "cls": "lambda", "group": s4_json}),
        ("unknown kind", {"kind": "pushforward", "cls": "psi", "group": s4_json}),
        ("h outside G", {"kind": "forgetful", "cls": "psi",
                         "group": _group_json(4, v4), "h": cycle}),
        ("non-normal N", {"kind": "corestriction", "cls": "kappa", "group": s4_json,
                          "normal": [perm_to_json((1, 0, 2, 3))]}),
        ("restriction malformed group", {"kind": "restriction", "cls": "psi",
                                         "group": {"degree": 4}}),
        ("normal not a list", {"kind": "corestriction", "cls": "kappa", "group": s4_json,
                               "normal": 5}),
    ):
        out.append((f"pullback/refused/{name}", ["pullback", "@in"], {"in": payload}))
    return out


def build_entries() -> list[tuple[str, list[str], dict]]:
    """(name, argv, files) for every corpus entry, in a fixed order."""
    from gg_factory import MUTATION_KINDS, _polygon, _z2_fixed_edge, _z2_gp, mutate
    from gg_factory import _edgeless, _s3_three_cycle_legs, _z2_loop_orbit, random_valid_graph
    from covercalc.delliptic import degree_ledger, pairing_series
    from covercalc.graphs import StableGraph

    entries: list[tuple[str, list[str], dict]] = []
    for flags in (
        ["--dmax", "40", "--series", "--qmod"],
        ["--dmax", "16", "--ledger"],
        ["--dmax", "10", "--ledger", "--series"],
        ["--dmax", "12", "--human"],
        ["--dmax", "6", "--qmod"],
        ["--dmax", "5", "--ledger", "--series", "--human"],
        ["--dmax", "2"],
        ["--dmax", "1"],
    ):
        entries.append(("delliptic " + " ".join(flags), ["delliptic", *flags], {}))
    for d, types in (
        (6, [[3, 2, 1], [4, 1, 1], [3, 2, 1], [3, 2, 1]]),
        (7, [[4, 1, 1, 1], [2, 1, 1, 1, 1, 1], [4, 3], [6, 1]]),
    ):
        argv = ["hurwitz-count", "--degree", str(d), "--types", json.dumps(types)]
        entries.append((f"hurwitz-count d={d}", argv, {}))
        entries.append((f"hurwitz-count d={d} weighted", argv + ["--weighted"], {}))
    entries.extend(_pullback_entries())
    for label, gg in (
        ("z2-gp-1", _z2_gp(1)),
        ("z2-fixed-edge-2-2", _z2_fixed_edge(2, 2)),
        ("polygon-2-0-legs", _polygon(2, 0, True)),
        ("z2-loop-orbit-1", _z2_loop_orbit(1)),
        ("polygon-2-1-legs", _polygon(2, 1, True)),
    ):
        files = {"a": gg.to_json(), "b": gg.to_json()}
        entries.append((f"intersect-ggraph {label}", ["intersect-ggraph", "--a", "@a", "--b", "@b"], files))
    rng = random.Random(11)
    for i in range(4):
        files = {"in": random_valid_graph(rng).to_json()}
        entries.append((f"validate-ggraph valid-{i}", ["validate-ggraph", "@in"], files))
    for kind in MUTATION_KINDS:
        files = {"in": mutate(kind, rng)[0].to_json()}
        entries.append((f"validate-ggraph mutation-{kind}", ["validate-ggraph", "@in"], files))
    for label, gg in (
        ("s3-three-cycle-legs-0", _s3_three_cycle_legs(0)),
        ("s3-three-cycle-legs-1", _s3_three_cycle_legs(1)),
        ("edgeless-s3-2", _edgeless("s3", 2)),
    ):
        entries.append((f"validate-ggraph {label}", ["validate-ggraph", "@in"], {"in": gg.to_json()}))
    separating = StableGraph((1, 1), (0, 1), (1, 0), (0, 1))
    irreducible = StableGraph((1,), (0, 0), (1, 0), (0, 0))
    entries.append((
        "intersect-boundary M_2,2 separating x irreducible",
        ["intersect-boundary", "--a", "@a", "--b", "@b"],
        {"a": separating.to_json(), "b": irreducible.to_json()},
    ))
    two_loops_22 = StableGraph((0,), (0, 0, 0, 0), (1, 0, 3, 2), (0, 0))
    two_loops_30 = StableGraph((1,), (0, 0, 0, 0), (1, 0, 3, 2), ())
    banana_13 = StableGraph((0, 0), (0, 1, 0, 1), (1, 0, 3, 2), (0, 1, 1))
    loop_bridge_13 = StableGraph((0, 0), (0, 0, 0, 1), (1, 0, 3, 2), (0, 1, 1))
    for label, a, b in (
        ("M_2,2 two loops x two loops", two_loops_22, two_loops_22),
        ("M_3,0 two loops x two loops", two_loops_30, two_loops_30),
        ("M_1,3 banana x loop-and-bridge", banana_13, loop_bridge_13),
    ):
        entries.append((
            f"intersect-boundary {label}",
            ["intersect-boundary", "--a", "@a", "--b", "@b"],
            {"a": a.to_json(), "b": b.to_json()},
        ))
    series = pairing_series([degree_ledger(d).delta01 for d in range(2, 41)]).to_json()
    entries.append((
        "qmod-check delta01 normalized to q^40",
        ["qmod-check", "--weight", "4", "--fit", "20", "--holdout", "18", "--input", "@in"],
        {"in": series},
    ))
    for weight, seed in ((8, 8), (14, 14)):
        member, perturbed = _qmod_combination(weight, seed)
        argv = ["qmod-check", "--weight", str(weight), "--fit", "40", "--holdout", "30",
                "--input", "@in"]
        entries.append((f"qmod-check weight {weight} member", argv, {"in": member}))
        entries.append((f"qmod-check weight {weight} perturbed", argv, {"in": perturbed}))
    flags = ["--dmax", "50", "--series", "--qmod"]
    entries.append(("delliptic " + " ".join(flags), ["delliptic", *flags], {}))
    entries.extend(_legged_boundary_entries())
    gg = _z2_gp(2)
    files = {"a": gg.to_json(), "b": gg.to_json()}
    entries.append(("intersect-ggraph z2-gp-2", ["intersect-ggraph", "--a", "@a", "--b", "@b"], files))
    # an error message that echoes non-ASCII input, U+2028 included, and
    # the largest ledger the benchmark prints (about 5 MB of stdout)
    types = json.dumps([["é", "\u2028"]], ensure_ascii=False)
    entries.append(("hurwitz-count d=2 non-ASCII types",
                    ["hurwitz-count", "--degree", "2", "--types", types], {}))
    flags = ["--dmax", "20", "--ledger"]
    entries.append(("delliptic " + " ".join(flags), ["delliptic", *flags], {}))
    # 10 transpositions in degree 6: 15^8 middle tuples, a count the
    # enumeration oracle cannot reach, checked against Hurwitz's formula
    argv = ["hurwitz-count", "--degree", "6", "--types", json.dumps([[2, 1, 1, 1, 1]] * 10)]
    entries.append(("hurwitz-count d=6 10 transpositions", argv, {}))
    entries.append(("hurwitz-count d=6 10 transpositions weighted", argv + ["--weighted"], {}))
    # the Z/3 and Z/4 polygons of genus-1 vertices with legs, each against
    # itself: |E_A|+|E_B| = 6 and 8 edges on M̄_{4,3} and M̄_{5,4}
    for m in (3, 4):
        gg = _polygon(m, 1, True)
        files = {"a": gg.to_json(), "b": gg.to_json()}
        entries.append((f"intersect-ggraph polygon-{m}-1-legs",
                        ["intersect-ggraph", "--a", "@a", "--b", "@b"], files))
    # psi integrals: a value in each genus 0..3, then a degree that is not
    # top degree and a negative genus, both refused
    for label, genus, exponents in (
        ("genus 0 value", "0", "1,1,0,0,0"),
        ("genus 1 value", "1", "1,1"),
        ("not top degree", "0", "2,0,0"),
        ("genus 2", "2", "4"),
        ("genus 3", "3", "7"),
        ("negative genus", "-1", "1"),
    ):
        entries.append((f"integrate {label}",
                        ["integrate", "--genus", genus, "--exponents", exponents], {}))
    entries.extend(_integrate_entries())
    # refused by the input bounds: tau_2^30 in genus 11 (54 s before the
    # bound on points of exponent >= 2) and 21 branch points in degree 7
    entries.append(("integrate genus 11 tau_2^30 refused",
                    ["integrate", "--genus", "11", "--exponents", ",".join(["2"] * 30)], {}))
    argv = ["hurwitz-count", "--degree", "7", "--types",
            json.dumps([[7]] + [[2, 1, 1, 1, 1, 1]] * 20)]
    entries.append(("hurwitz-count d=7 21 branch points refused", argv, {}))
    return entries


def _integrate_entries() -> list[tuple[str, list[str], dict]]:
    """`integrate` at the sizes of the benchmark's strata jobs: seeded genus-0
    and genus-1 exponent vectors with 12-20 points (each of the 3g-3+n
    degrees placed on a random point), a genus-1 vector of zeros and indices
    of 2 and more, a genus-0 string chain of 300 zeros and one 298, and
    string chains of 400 zeros and one 401 in genus 1, one 404 in genus 2."""
    rng = random.Random(22)
    out = []
    for g in (0, 0, 0, 1, 1, 1):
        n = rng.randint(12, 20)
        exps = [0] * n
        for _ in range(3 * g - 3 + n):
            exps[rng.randrange(n)] += 1
        out.append((f"genus {g} seeded n={n}", str(g), exps))
    out.append(("genus 1 zeros and indices >= 2", "1", [0, 0, 3, 0, 2, 0, 2, 0, 2]))
    out.append(("genus 0 tau_0^300 tau_298", "0", [0] * 300 + [298]))
    out.append(("genus 1 string chain", "1", [0] * 400 + [401]))
    out.append(("genus 2 string chain", "2", [0] * 400 + [404]))
    return [(f"integrate {label}",
             ["integrate", "--genus", genus, "--exponents", ",".join(map(str, exps))], {})
            for label, genus, exps in out]


def _legged_boundary_entries() -> list[tuple[str, list[str], dict]]:
    """`intersect-boundary` on spaces with legs, where the generic (A,B)
    search runs over 4-6 edges; the M_2,4 pair splits the legs {1,2}|{3,4}
    and {1,3}|{2,4}, so no graph degenerates from both and no term prints."""
    from covercalc.graphs import StableGraph

    pairs = (
        ("M_2,4 crossing splits 2+2",
         StableGraph((0, 1, 1), (0, 1, 1, 2), (1, 0, 3, 2), (0, 0, 2, 2)),
         StableGraph((0, 1, 1), (0, 1, 1, 2), (1, 0, 3, 2), (0, 2, 0, 2))),
        ("M_2,3 loop-and-bridge x 3 edges",
         StableGraph((0, 1), (0, 0, 0, 1), (1, 0, 3, 2), (1, 0, 0)),
         StableGraph((0, 1, 0), (2, 0, 2, 1, 0, 2), (1, 0, 3, 2, 5, 4), (2, 2, 0))),
        ("M_1,5 banana x bridge",
         StableGraph((0, 0), (1, 0, 0, 1), (1, 0, 3, 2), (0, 1, 0, 0, 0)),
         StableGraph((0, 1), (0, 1), (1, 0), (0, 1, 1, 0, 1))),
        ("M_3,1 3+3",
         StableGraph((0, 1, 1), (1, 0, 0, 1, 1, 2), (1, 0, 3, 2, 5, 4), (0,)),
         StableGraph((0, 1), (1, 1, 0, 0, 0, 1), (1, 0, 3, 2, 5, 4), (1,))),
    )
    return [
        (f"intersect-boundary {label}", ["intersect-boundary", "--a", "@a", "--b", "@b"],
         {"a": a.to_json(), "b": b.to_json()})
        for label, a, b in pairs
    ]


def _qmod_combination(weight: int, seed: int) -> tuple[dict, dict]:
    """A seeded rational combination of every E2/E4/E6 monomial of weight <=
    `weight` to q^69, and a copy with one held-out coefficient moved."""
    from fractions import Fraction

    from covercalc.exact import QSeries
    from qmod_oracles import oracle_basis

    rng = random.Random(seed)
    order = 69
    total = [Fraction(0)] * (order + 1)
    for _, series in oracle_basis(weight, order):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        total = [t + c * x for t, x in zip(total, series.coeffs)]
    moved = list(total)
    moved[rng.randrange(40, 70)] += Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return QSeries(tuple(total)).to_json(), QSeries(tuple(moved)).to_json()


def capture(workdir: Path) -> list[dict]:
    corpus = []
    for name, argv, files in build_entries():
        entry = {"name": name, "argv": argv, "files": files}
        entry["exit"], entry["sha256"] = run_entry(entry, workdir)
        corpus.append(entry)
    return corpus


def changed_entries(old: list[dict], new: list[dict]) -> list[str]:
    """The names of the entries added, dropped, or with another exit code or
    digest in `new` than in `old`, in `new`'s order, the dropped ones last."""
    before = {e["name"]: (e["exit"], e["sha256"]) for e in old}
    after = {e["name"]: (e["exit"], e["sha256"]) for e in new}
    return ([name for name, result in after.items() if before.get(name) != result]
            + [name for name in before if name not in after])


def changed_outputs(old: list[dict], new: list[dict]) -> list[tuple[str, str]]:
    """(graph name, output key) of each library output added, dropped or
    with another digest, sorted."""
    before = {(e["name"], k): v for e in old for k, v in e["outputs"].items()}
    after = {(e["name"], k): v for e in new for k, v in e["outputs"].items()}
    return sorted(key for key in before.keys() | after.keys()
                  if before.get(key) != after.get(key))


def main(argv: list[str]) -> int:
    """Recapture both corpora, or with --check only report: print each
    changed entry and library output, write nothing, and return 1 when
    anything changed."""
    import tempfile

    import gcover_corpus

    check = argv == ["--check"]
    if argv and not check:
        print("usage: golden_corpus.py [--check]")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        corpus = capture(Path(tmp))
    library = gcover_corpus.capture()
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else []
    old_library = (json.loads(gcover_corpus.CORPUS.read_text())
                   if gcover_corpus.CORPUS.exists() else [])
    changed_cli = changed_entries(old, corpus)
    for name in changed_cli:
        print(f"changed: {name}")
    print(f"{len(changed_cli)} changed CLI entries of {len(corpus)}")
    changed = changed_outputs(old_library, library)
    for name, key in changed:
        print(f"changed output: {name} {key}")
    outputs = sum(len(e["outputs"]) for e in library)
    print(f"{len(changed)} changed gcover library outputs of {outputs}")
    if check:
        return 1 if changed_cli or changed else 0
    CORPUS.parent.mkdir(exist_ok=True)
    for path, new in ((CORPUS, corpus), (gcover_corpus.CORPUS, library)):
        path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{len(corpus)} corpus entries, {len(library)} gcover library entries, "
          f"{outputs} outputs")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
