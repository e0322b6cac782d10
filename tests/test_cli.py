"""Command-line interface: outputs, exit codes, and error handling."""
from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from xformlens import (
    analyze,
    corpus_dir,
    fixture_corpus,
    ignored_table,
    referenced_table,
    render,
    report_table,
    report_to_json,
)
from xformlens.cli import main

FIXED_ARGS = [
    "pivot.cmm",
    "classInstantiation.tfm",
    "enumRemoval.tfm",
    "forallRemoval.tfm",
    "recordRemoval.tfm",
    "uselessIfRemoval.tfm",
]


@pytest.fixture(scope="module")
def corpus_args():
    base = corpus_dir()
    return [str(base / name) for name in FIXED_ARGS]


@pytest.fixture()
def runner():
    return CliRunner()


def _expected_markdown():
    mm, transformations = fixture_corpus()
    reports = [analyze(t, mm, mm) for t in transformations]
    pieces = [render(ignored_table(reports), "markdown")]
    pieces.append(render(referenced_table(reports), "markdown"))
    pieces.extend(render(report_table(r), "markdown") for r in reports)
    return "\n".join(pieces)


def test_analyze_markdown_matches_library_composition(runner, corpus_args):
    result = runner.invoke(main, ["analyze", *corpus_args])
    assert result.exit_code == 0
    assert result.output == _expected_markdown()
    assert result.output.startswith("### Ignored metaelements\n")


def test_analyze_is_deterministic(runner, corpus_args):
    first = runner.invoke(main, ["analyze", *corpus_args]).output
    second = runner.invoke(main, ["analyze", *corpus_args]).output
    assert first == second


def test_analyze_json_is_an_array_of_reports(runner, corpus_args):
    result = runner.invoke(main, ["analyze", "--format", "json", *corpus_args])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert [r["transformation"] for r in data] == [
        "classInstantiation",
        "enumRemoval",
        "forallRemoval",
        "recordRemoval",
        "uselessIfRemoval",
    ]
    mm, transformations = fixture_corpus()
    expected = [report_to_json(analyze(t, mm, mm)) for t in transformations]
    assert data == expected
    assert result.output == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["html", "latex"])
def test_analyze_other_formats_render(runner, corpus_args, fmt):
    result = runner.invoke(main, ["analyze", "--format", fmt, *corpus_args])
    assert result.exit_code == 0
    marker = "<table>" if fmt == "html" else "\\begin{tabular}"
    assert marker in result.output


def test_analyze_out_writes_file(runner, corpus_args, tmp_path):
    out = tmp_path / "tables.md"
    result = runner.invoke(main, ["analyze", "--out", str(out), *corpus_args])
    assert result.exit_code == 0
    assert result.output == ""
    assert out.read_text(encoding="utf-8") == _expected_markdown()


def test_analyze_missing_file_fails_cleanly(runner, tmp_path):
    result = runner.invoke(main, ["analyze", str(tmp_path / "nope.cmm"), "x.tfm"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ")


def test_analyze_non_utf8_file_fails_with_byte_offset(runner, corpus_args, tmp_path):
    bad = tmp_path / "bad.cmm"
    bad.write_bytes(b"metamodel M { class \xff {} }")
    result = runner.invoke(main, ["analyze", str(bad), corpus_args[1]])
    assert result.exit_code == 1
    assert result.stderr == f"error: {bad}: not valid UTF-8 at byte 20\n"


def test_analyze_parse_error_reports_position(runner, corpus_args, tmp_path):
    bad = tmp_path / "bad.tfm"
    bad.write_text("module broken\n", encoding="utf-8")
    result = runner.invoke(main, ["analyze", corpus_args[0], str(bad)])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ")
    assert "bad.tfm:" in result.stderr


@pytest.fixture()
def unknown_concept_module(tmp_path):
    mm = tmp_path / "mini.cmm"
    mm.write_text("metamodel Mini { class A {} }\n", encoding="utf-8")
    tfm = tmp_path / "ghost.tfm"
    tfm.write_text(
        "module ghost;\n"
        "create OUT : Mini from IN : Mini;\n\n"
        "rule A {\n"
        "\tfrom\n"
        "\t\ts : Mini!A\n"
        "\tto\n"
        "\t\tt : Mini!Ghost()\n"
        "}\n",
        encoding="utf-8",
    )
    return [str(mm), str(tfm)]


def test_analyze_strict_exits_two_on_unknown_concepts(
    runner, unknown_concept_module, tmp_path
):
    out = tmp_path / "tables.md"
    result = runner.invoke(
        main, ["analyze", "--strict", "--out", str(out), *unknown_concept_module]
    )
    assert result.exit_code == 2
    assert out.exists()


def test_analyze_strict_passes_on_clean_corpus(runner, corpus_args):
    result = runner.invoke(main, ["analyze", "--strict", *corpus_args])
    assert result.exit_code == 0


def test_lint_reports_informational_findings(runner, corpus_args):
    result = runner.invoke(
        main, ["lint", corpus_args[0], str(corpus_dir() / "recordRemoval.tfm")]
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "recordRemoval: never_processed: concept 'Record' is referenced "
        "but never copied or mutated",
        "recordRemoval: ignored_in: concept 'Class' appears in no source "
        "pattern, guard, binding, or helper body",
        "recordRemoval: ignored_out: concept 'Class' appears in no target pattern",
        "recordRemoval: ignored_out: concept 'Record' appears in no target pattern",
    ]


def test_lint_prints_no_findings_for_clean_input(runner, corpus_args):
    result = runner.invoke(
        main, ["lint", corpus_args[0], str(corpus_dir() / "uselessIfRemoval.tfm")]
    )
    assert result.exit_code == 0
    assert result.output == "no findings\n"


def test_lint_positions_unknown_concepts(runner, unknown_concept_module):
    result = runner.invoke(main, ["lint", *unknown_concept_module])
    assert result.exit_code == 0
    line = result.output.splitlines()[0]
    path = unknown_concept_module[1]
    assert line == (
        f"{path}:8:7: unknown_concept: rule 'A' references unknown "
        "concept 'Mini!Ghost'"
    )


def test_lint_strict_exits_two_on_unknown(runner, unknown_concept_module):
    result = runner.invoke(main, ["lint", "--strict", *unknown_concept_module])
    assert result.exit_code == 2


def test_lint_strict_keeps_informational_findings_at_zero(runner, corpus_args):
    result = runner.invoke(main, ["lint", "--strict", *corpus_args])
    assert result.exit_code == 0


def test_lint_colors_kinds_when_enabled(runner, unknown_concept_module):
    result = runner.invoke(
        main,
        ["lint", *unknown_concept_module],
        env={"XFORMLENS_COLOR": "1"},
        color=True,
    )
    assert "\x1b[31munknown_concept\x1b[0m" in result.output


def test_chain_check_reports_invalid_step(runner, corpus_args):
    result = runner.invoke(
        main,
        ["chain-check", corpus_args[0], str(corpus_dir() / "recordRemoval.tfm")],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("initial: EnumLiteral, Predicate, ")
    assert lines[1] == "step 1: recordRemoval: INVALID (outside refined domain: Class)"
    assert lines[-1] == "chain: INVALID"


def test_chain_check_valid_chain_with_warning(runner, corpus_args):
    initial = ",".join(
        c
        for c in (
            "EnumLiteral,Predicate,Enumeration,DataType,Model,Class,Record,"
            "Variable,Constant,Constraint,If,Forall,IndexVariable,Array,"
            "SetDomain,IntervalDomain,VariableExpr,PropertyExpr,BoolVal,IntVal"
        ).split(",")
        if c != "Record"
    )
    result = runner.invoke(
        main,
        [
            "chain-check",
            corpus_args[0],
            str(corpus_dir() / "classInstantiation.tfm"),
            str(corpus_dir() / "recordRemoval.tfm"),
            "--initial",
            initial,
        ],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[1] == "step 1: classInstantiation: VALID"
    assert lines[2] == (
        "  warning: useless step: 'Record' is introduced here and dropped "
        "by step 2 ('recordRemoval')"
    )
    assert lines[3] == "step 2: recordRemoval: VALID"
    assert lines[-1] == "chain: VALID"


def test_chain_check_rejects_unknown_initial_concept(runner, corpus_args):
    result = runner.invoke(
        main,
        ["chain-check", *corpus_args[:2], "--initial", "Class,Spirit"],
    )
    assert result.exit_code == 1
    assert (
        "'Spirit' is not a concrete concept of metamodel 'CPPivot'"
        in result.stderr
    )


def test_chain_plan_prints_steps_and_final_set(runner, corpus_args):
    result = runner.invoke(
        main, ["chain-plan", *corpus_args, "--forbid", "Class", "--forbid", "Record"]
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "plan: 2 step(s)"
    assert lines[1] == "step 1: classInstantiation"
    assert lines[2] == "step 2: recordRemoval"
    assert lines[3].startswith("final: ")
    assert "Class" not in lines[3] and "Record" not in lines[3]


def test_chain_plan_no_plan_exits_three(runner, corpus_args):
    result = runner.invoke(main, ["chain-plan", *corpus_args, "--forbid", "Forall"])
    assert result.exit_code == 3
    assert result.output == "no plan\n"


def test_chain_plan_rejects_overlapping_goals(runner, corpus_args):
    result = runner.invoke(
        main,
        ["chain-plan", *corpus_args, "--require", "Class", "--forbid", "Class"],
    )
    assert result.exit_code == 1
    assert "error: " in result.stderr


def test_chain_plan_rejects_negative_max_len(runner, corpus_args):
    result = runner.invoke(main, ["chain-plan", *corpus_args, "--max-len", "-3"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: --max-len must be at least 0\n"


def test_chain_plan_rejects_duplicate_transformation_names(runner, corpus_args, tmp_path):
    base = corpus_dir()
    clash = tmp_path / "enumRemovalCopy.tfm"
    text = (base / "enumRemoval.tfm").read_text(encoding="utf-8")
    clash.write_text(text.replace("module enumRemoval;", "module recordRemoval;"), encoding="utf-8")
    real = str(base / "recordRemoval.tfm")
    result = runner.invoke(
        main,
        ["chain-plan", corpus_args[0], real, str(clash), "--forbid", "Record,EnumLiteral"],
    )
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        f"error: duplicate transformation name 'recordRemoval': {real} and {clash}\n"
    )


def test_chain_plan_zero_steps(runner, corpus_args):
    result = runner.invoke(main, ["chain-plan", *corpus_args, "--require", "Model"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "plan: 0 step(s)"


def test_help_lists_all_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in ("analyze", "lint", "chain-check", "chain-plan"):
        assert command in result.output
