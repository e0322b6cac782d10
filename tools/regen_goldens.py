"""Regenerate the golden outputs stored next to the fixture corpus.

Run from the repository root after an intentional behavior change:

    python3 tools/regen_goldens.py

The test suite compares fresh renders against these files byte for
byte, so regenerating them is a deliberate act, not part of the build.
"""
from __future__ import annotations

import sys
from pathlib import Path

# Import the package from this checkout, installed or not, and the corpus
# loader from its tests.
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from xformlens import (
    analyze,
    ignored_table,
    referenced_table,
    render,
    report_to_json,
)

from helpers import CORPUS, fixture_corpus


def golden_texts(reports) -> dict[str, str]:
    """Each golden file's path under `fixtures/`, mapped to its text."""
    texts = {
        "table2.md": render(ignored_table(reports), "markdown"),
        "table3.md": render(referenced_table(reports), "markdown"),
    }
    for r in reports:
        texts[f"reports/{r.transformation}.json"] = report_to_json(r) + "\n"
    return texts


def main() -> None:
    mm, transformations = fixture_corpus()
    reports = [analyze(t, mm, mm) for t in transformations]
    for name, text in golden_texts(reports).items():
        path = CORPUS / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
        print("wrote", Path("fixtures", name))


if __name__ == "__main__":
    main()
