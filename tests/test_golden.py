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
