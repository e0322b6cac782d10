"""Regenerate the golden outputs stored next to the fixture corpus.

Run from the repository root after an intentional behavior change:

    python3 tools/regen_goldens.py

The test suite compares fresh renders against these files byte for
byte, so regenerating them is a deliberate act, not part of the build.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

# Import the package from this checkout, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from xformlens import (
    analyze,
    fixture_corpus,
    ignored_table,
    referenced_table,
    render,
    report_to_json,
)


def main() -> None:
    root = Path(__file__).resolve().parents[1]
    fixtures = root / "fixtures"
    mm, transformations = fixture_corpus()
    reports = [analyze(t, mm, mm) for t in transformations]

    (fixtures / "table2.md").write_text(
        render(ignored_table(reports), "markdown"), encoding="utf-8"
    )
    (fixtures / "table3.md").write_text(
        render(referenced_table(reports), "markdown"), encoding="utf-8"
    )

    out = fixtures / "reports"
    out.mkdir(exist_ok=True)
    for r in reports:
        path = out / f"{r.transformation}.json"
        path.write_text(
            json.dumps(report_to_json(r), indent=2) + "\n", encoding="utf-8"
        )
        print("wrote", path.relative_to(root))
    print("wrote", (fixtures / "table2.md").relative_to(root))
    print("wrote", (fixtures / "table3.md").relative_to(root))


if __name__ == "__main__":
    main()
