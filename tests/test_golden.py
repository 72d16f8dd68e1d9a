"""Replay the golden corpora: the CLI one (same exit code, byte-identical
stdout) and the gcover library one (same digest for every output)."""

import json
import time

import pytest

import gcover_corpus
from golden_corpus import CORPUS, run_entry

ENTRIES = json.loads(CORPUS.read_text())
LIBRARY = json.loads(gcover_corpus.CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_golden_entry(entry, tmp_path):
    code, digest = run_entry(entry, tmp_path)
    assert (code, digest) == (entry["exit"], entry["sha256"])


@pytest.mark.parametrize("entry", LIBRARY, ids=[e["name"] for e in LIBRARY])
def test_gcover_library_entry(entry):
    assert gcover_corpus.evaluate(entry["graph"], entry["subgroups"]) == entry["outputs"]


POLYGONS = [e for e in ENTRIES if e["name"] in (
    "intersect-ggraph polygon-3-1-legs", "intersect-ggraph polygon-4-1-legs")]


@pytest.mark.parametrize("entry", POLYGONS, ids=[e["name"] for e in POLYGONS])
def test_genus_one_polygon_self_intersections_replay_in_seconds(entry, tmp_path):
    # the Z/4 one took about 90 s and 260 MB while the generic (A,B)
    # classes were searched among all common degenerations of A and B
    start = time.perf_counter()
    code, digest = run_entry(entry, tmp_path)
    assert time.perf_counter() - start < 10.0
    assert (code, digest) == (entry["exit"], entry["sha256"])


@pytest.mark.parametrize("changed, code", [(False, 0), (True, 1)], ids=["same", "changed"])
def test_check_reports_a_change_writes_nothing_and_exits_1(monkeypatch, tmp_path, capsys,
                                                          changed, code):
    # the two captures stand in for a replay: one entry each, the CLI one
    # with its digest moved when `changed`
    import golden_corpus

    cli = [{"name": "cli", "exit": 0, "sha256": "a"}]
    library = [{"name": "graph", "outputs": {"validate": "b"}}]
    paths = {golden_corpus: tmp_path / "corpus.json", gcover_corpus: tmp_path / "gcover.json"}
    for module, old in ((golden_corpus, cli), (gcover_corpus, library)):
        paths[module].write_text(json.dumps(old))
        monkeypatch.setattr(module, "CORPUS", paths[module])
    new_cli = [dict(cli[0], sha256="c")] if changed else cli
    monkeypatch.setattr(golden_corpus, "capture", lambda workdir: new_cli)
    monkeypatch.setattr(gcover_corpus, "capture", lambda: library)
    assert golden_corpus.main(["--check"]) == code
    out = capsys.readouterr().out
    assert out == (("changed: cli\n1" if changed else "0") + " changed CLI entries of 1\n"
                   "0 changed gcover library outputs of 1\n")
    assert json.loads(paths[golden_corpus].read_text()) == cli
