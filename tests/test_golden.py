"""Replay the golden corpora: the CLI one (same exit code, byte-identical
stdout) and the gcover library one (same digest for every output)."""

import json

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
