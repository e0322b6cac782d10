"""The mutant gate's list stays aimed at the code: each mutant's text occurs exactly once in its file,
as `tools/mutants.py` checks before it runs, so a refactor that moves a mutated line fails here."""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from mutants import MUTANTS  # noqa: E402


def test_each_mutant_text_occurs_once_in_its_file():
    counts = [(file, why, (ROOT / file).read_text(encoding="utf-8").count(old)) for file, old, _, why in MUTANTS]
    assert [c for c in counts if c[2] != 1] == []
