"""Differential test: every benchmark invocation against the benchmark's oracle.

`perfbench/workloads.py` generates each workload's files together with
the exact stdout and exit code of every command form, computed by
`perfbench/oracle.py` from the generator's own specs without xformlens.
The oracle places every concept reference on its own, so this checks
positions, verdicts, tables, JSON and plans on inputs much larger than
the fixture corpus (McKeeman, "Differential Testing for Software", 1998).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from xformlens import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from oracle import Chains  # noqa: E402


def _run(args, capsys):
    try:
        cli.main(args)
        code = 0
    except SystemExit as exc:
        code = exc.code
    return capsys.readouterr().out, code


@pytest.mark.parametrize("name", ["corpus-cli", "bulk-parse", "wide-metamodel"])
def test_cli_agrees_with_the_benchmark_oracle(name, tmp_path, monkeypatch, capsys):
    workload = workloads.build(name, ROOT, 1)
    # corpus-cli writes nothing: its invocations name `fixtures/...`.
    root = tmp_path if workload.files else ROOT
    workload.write(root)
    monkeypatch.chdir(root)
    assert workload.invocations
    for inv in workload.invocations:
        assert _run(inv.args, capsys) == (inv.stdout, inv.code), (inv.form, inv.args)


# The workloads' plan goals each have a single shortest chain. On the
# corpus these goals have two or three, so they pin the tie-break: the
# lexicographically smallest sequence of transformation names.
@pytest.mark.parametrize("forbidden", [("Class", "EnumLiteral"), ("Enumeration", "Record")])
def test_chain_plan_ties_agree_with_the_oracle(forbidden, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    reports_dir = Path("fixtures/reports")
    names = sorted(p.stem for p in reports_dir.glob("*.json"))
    reports = [json.loads((reports_dir / f"{n}.json").read_text(encoding="utf-8")) for n in names]
    concrete = [p["concept"] for p in reports[0]["profiles"]]
    expected = Chains(reports, concrete).plan_text(
        frozenset(concrete), frozenset(), frozenset(forbidden), 8
    )
    args = ["chain-plan", "fixtures/pivot.cmm", *(f"fixtures/{n}.tfm" for n in names)]
    args += [a for c in forbidden for a in ("--forbid", c)]
    assert _run(args, capsys) == expected
