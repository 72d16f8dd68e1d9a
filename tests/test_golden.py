"""Replay the golden stdout corpus: same exit code, byte-identical stdout."""

import json

import pytest

from golden_corpus import CORPUS, run_entry

ENTRIES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_golden_entry(entry, tmp_path):
    code, digest = run_entry(entry, tmp_path)
    assert (code, digest) == (entry["exit"], entry["sha256"])
