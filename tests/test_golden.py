"""Every verb's bytes against the digests in tests/golden/digests.json."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_make", Path(__file__).with_name("golden") / "make.py")
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


def test_every_verb_matches_its_golden_digest(monkeypatch):
    # exports render at one fixed precision; this variable once changed it
    monkeypatch.setenv("ZONOCERT_RENDER_DIGITS", "40")
    want = json.loads(make.DIGESTS.read_text(encoding="utf-8"))
    got = make.digests()
    assert sorted(got) == sorted(want)
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"output bytes moved for {len(moved)} cases: {moved}"
