"""Command-line interface: outputs, exit codes, and error handling."""
from __future__ import annotations

import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import xformlens
from xformlens import (
    ParseError,
    analyze,
    ignored_table,
    referenced_table,
    render,
    report_table,
    parse_metamodel,
    parse_transformation,
    report_to_json,
)
from xformlens.cli import main
from xformlens.report import lint_lines

from helpers import CORPUS, fixture_corpus, subprocess_env, wrap_rules

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
    return [str(CORPUS / name) for name in FIXED_ARGS]


class Result(NamedTuple):
    exit_code: int
    out: str
    err: str


@pytest.fixture()
def cli(capsys):
    """Run `main(argv)` in process; the exit code is 0 when it returns."""

    def run(argv):
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
        return Result(code, *capsys.readouterr())

    return run


def _expected_markdown():
    mm, transformations = fixture_corpus()
    reports = [analyze(t, mm, mm) for t in transformations]
    pieces = [render(ignored_table(reports), "markdown")]
    pieces.append(render(referenced_table(reports), "markdown"))
    pieces.extend(render(report_table(r), "markdown") for r in reports)
    return "\n".join(pieces)


def test_analyze_markdown_matches_library_composition(cli, corpus_args):
    result = cli(["analyze", *corpus_args])
    assert result.exit_code == 0
    assert result.out == _expected_markdown()
    assert result.out.startswith("### Ignored metaelements\n")


def test_analyze_is_deterministic(cli, corpus_args):
    first = cli(["analyze", *corpus_args]).out
    second = cli(["analyze", *corpus_args]).out
    assert first == second


def test_analyze_json_is_an_array_of_reports(cli, corpus_args):
    result = cli(["analyze", "--format", "json", *corpus_args])
    assert result.exit_code == 0
    data = json.loads(result.out)
    assert [r["transformation"] for r in data] == [
        "classInstantiation",
        "enumRemoval",
        "forallRemoval",
        "recordRemoval",
        "uselessIfRemoval",
    ]
    mm, transformations = fixture_corpus()
    expected = [json.loads(report_to_json(analyze(t, mm, mm))) for t in transformations]
    assert data == expected
    assert result.out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["html", "latex"])
def test_analyze_other_formats_render(cli, corpus_args, fmt):
    result = cli(["analyze", "--format", fmt, *corpus_args])
    assert result.exit_code == 0
    marker = "<table>" if fmt == "html" else "\\begin{tabular}"
    assert marker in result.out


def test_analyze_out_writes_file(cli, corpus_args, tmp_path):
    out = tmp_path / "tables.md"
    result = cli(["analyze", "--out", str(out), *corpus_args])
    assert result.exit_code == 0
    assert result.out == ""
    assert out.read_text(encoding="utf-8") == _expected_markdown()


def test_analyze_out_to_a_directory_fails_cleanly(cli, corpus_args, tmp_path):
    result = cli(["analyze", "--out", str(tmp_path), *corpus_args])
    assert result.exit_code == 1
    assert result.out == ""
    assert result.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_analyze_missing_file_fails_cleanly(cli, tmp_path):
    result = cli(["analyze", str(tmp_path / "nope.cmm"), "x.tfm"])
    assert result.exit_code == 1
    assert result.err.startswith("error: ")


def test_analyze_non_utf8_file_fails_with_byte_offset(cli, corpus_args, tmp_path):
    bad = tmp_path / "bad.cmm"
    bad.write_bytes(b"metamodel M { class \xff {} }")
    result = cli(["analyze", str(bad), corpus_args[1]])
    assert result.exit_code == 1
    assert result.err == f"error: {bad}: not valid UTF-8 at byte 20\n"


@pytest.mark.parametrize("which", [0, 1])
def test_a_leading_byte_order_mark_is_ignored(cli, corpus_args, tmp_path, which):
    args = list(corpus_args)
    bom = tmp_path / Path(args[which]).name
    bom.write_bytes(b"\xef\xbb\xbf" + Path(args[which]).read_bytes())
    plain = cli(["analyze", "--format", "json", *args])
    args[which] = str(bom)
    assert cli(["analyze", "--format", "json", *args]) == plain
    assert plain.exit_code == 0


def test_non_utf8_byte_offset_counts_the_byte_order_mark(cli, corpus_args, tmp_path):
    bad = tmp_path / "bad.cmm"
    bad.write_bytes(b"\xef\xbb\xbfab\xff")
    result = cli(["analyze", str(bad), corpus_args[1]])
    assert result.exit_code == 1
    assert result.err == f"error: {bad}: not valid UTF-8 at byte 5\n"


def test_analyze_parse_error_reports_position(cli, corpus_args, tmp_path):
    bad = tmp_path / "bad.tfm"
    bad.write_text("module broken\n", encoding="utf-8")
    result = cli(["analyze", corpus_args[0], str(bad)])
    assert result.exit_code == 1
    assert result.err.startswith("error: ")
    assert "bad.tfm:" in result.err


_MISMATCHED = "module mism;\ncreate OUT : Other from IN : Other;\n"


def test_a_metamodel_mismatch_names_its_file(cli, corpus_args, tmp_path):
    mism = tmp_path / "mism.tfm"
    mism.write_text(_MISMATCHED, encoding="utf-8")
    result = cli(["lint", corpus_args[0], str(mism)])
    assert result.exit_code == 1
    assert result.out == ""
    assert result.err == (
        f"error: {mism}: transformation 'mism' reads from 'Other' but metamodel 'CPPivot' was supplied\n"
    )


@pytest.mark.parametrize("mismatch_first", [True, False], ids=["mismatch-first", "parse-error-first"])
def test_the_first_bad_file_in_argument_order_is_reported(cli, corpus_args, tmp_path, mismatch_first):
    # Each file is parsed just before it is analyzed: parsing them all first
    # would report the parse error whatever the order.
    mism, broken = tmp_path / "mism.tfm", tmp_path / "broken.tfm"
    mism.write_text(_MISMATCHED, encoding="utf-8")
    broken.write_text("module broken\n", encoding="utf-8")
    files = [mism, broken] if mismatch_first else [broken, mism]
    result = cli(["lint", corpus_args[0], *map(str, files)])
    assert result.exit_code == 1
    assert len(result.err.splitlines()) == 1
    assert ("reads from 'Other'" in result.err) is mismatch_first
    assert (f"{broken}:" in result.err) is not mismatch_first


def test_lint_rejects_crossed_brackets_with_one_positioned_error(cli, tmp_path):
    mm = tmp_path / "m.cmm"
    mm.write_text("metamodel M { class Circle {} class Square {} }", encoding="utf-8")
    bad = tmp_path / "crossed.tfm"
    rule = "rule C { from s : M!Circle (s.x[ ) and M!Square.f( ]) to t : M!Circle() }"
    bad.write_text(wrap_rules(rule, source_mm="M"), encoding="utf-8")
    result = cli(["lint", str(mm), str(bad)])
    assert result.exit_code == 1
    assert result.out == ""
    assert result.err.splitlines() == [f"error: {bad}:4:34: mismatched ')' in guard expression"]


# A lone CR written into the file, which the CLI reads with universal
# newlines and the API takes as it is.
_CR_PROBES = {
    "comment": ("module t;\ncreate OUT : M from IN : M;\r-- c\rrule R { from s : M!A to t : M!B() }\n",
                "{path}:4:30: unknown_concept: rule 'R' references unknown concept 'M!B'\n"
                "t: never_processed: concept 'A' is referenced but never copied or mutated\n"
                "t: ignored_out: concept 'A' appears in no target pattern\n", ""),
    "string": ("module t;\ncreate OUT : M from IN : M;\nhelper def : h : String = 'a\rb';\n",
               "", "error: {path}:3:27: unterminated string literal\n"),
}


@pytest.mark.parametrize("name", _CR_PROBES)
def test_a_lone_cr_ends_a_line_in_the_cli_and_the_api_alike(cli, tmp_path, name):
    source, out, err = _CR_PROBES[name]
    mm_path, path = tmp_path / "m.cmm", tmp_path / "probe.tfm"
    mm_path.write_text("metamodel M { class A {} }", encoding="utf-8")
    path.write_bytes(source.encode("utf-8"))
    mm = parse_metamodel(mm_path.read_text(encoding="utf-8"))
    try:
        reports = [analyze(parse_transformation(source, path=str(path)), mm, mm)]
        api = ("".join(f"{line}\n" for r in reports for line in lint_lines(r.diagnostics, r.transformation)), "")
    except ParseError as exc:
        api = ("", f"error: {exc}\n")
    assert api == (out.format(path=path), err.format(path=path))
    assert cli(["lint", str(mm_path), str(path)])[1:] == api


@pytest.mark.parametrize(
    "char, shown",
    [pytest.param(c, f"U+{ord(c):04X}", id=c) for c in ["\u200b", "\u00a0", "\f", "\0", "\u2028"]]
    + [pytest.param(f"'a{c}b'", f"''aU+{ord(c):04X}b''", id=f"'a{c}b'") for c in ["\f", "\u2028", "\u200b", "\0"]],
)
def test_parse_error_on_an_invisible_character_is_one_line(cli, corpus_args, tmp_path, char, shown):
    bad = tmp_path / "zw.cmm"
    bad.write_text("metamodel M {" + char, encoding="utf-8")
    result = cli(["lint", str(bad), corpus_args[1]])
    assert result.exit_code == 1
    assert result.err.splitlines() == [f"error: {bad}:1:14: expected 'class', found {shown}"]


@pytest.fixture()
def line_break_path(tmp_path, monkeypatch):
    """Write `text` to a file named `nl/c<LF>d.tfm` beside `nl/m.cmm`; return its relative name."""
    (tmp_path / "nl").mkdir()
    (tmp_path / "nl" / "m.cmm").write_text("metamodel M { class A {} }", encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def write(text):
        try:
            (tmp_path / "nl" / "c\nd.tfm").write_text(text, encoding="utf-8")
        except OSError:
            pytest.skip("the file system refuses a line break in a file name")
        return "nl/c\nd.tfm"

    return write


def test_a_line_break_in_a_file_name_keeps_the_error_on_one_line(cli, line_break_path):
    path = line_break_path(wrap_rules("rule r { from s : M!A to t : M!A() } }", source_mm="M"))
    result = cli(["lint", "nl/m.cmm", path])
    assert result.exit_code == 1
    assert result.err.splitlines() == ["error: nl/cU+000Ad.tfm:4:38: expected end of input, found '}'"]


def test_a_line_break_in_a_file_name_keeps_the_finding_on_one_line(cli, line_break_path):
    path = line_break_path(wrap_rules("rule r { from s : M!A to t : M!Ghost() }", source_mm="M"))
    result = cli(["lint", "nl/m.cmm", path])
    assert result.exit_code == 0
    assert result.out.splitlines()[0] == (
        "nl/cU+000Ad.tfm:4:30: unknown_concept: rule 'r' references unknown concept 'M!Ghost'"
    )


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
    cli, unknown_concept_module, tmp_path
):
    out = tmp_path / "tables.md"
    result = cli(["analyze", "--strict", "--out", str(out), *unknown_concept_module])
    assert result.exit_code == 2
    assert out.exists()


def test_analyze_strict_passes_on_clean_corpus(cli, corpus_args):
    result = cli(["analyze", "--strict", *corpus_args])
    assert result.exit_code == 0


def test_lint_reports_informational_findings(cli, corpus_args):
    result = cli(["lint", corpus_args[0], str(CORPUS / "recordRemoval.tfm")])
    assert result.exit_code == 0
    assert result.out.splitlines() == [
        "recordRemoval: never_processed: concept 'Record' is referenced "
        "but never copied or mutated",
        "recordRemoval: ignored_in: concept 'Class' appears in no source "
        "pattern, guard, binding, or helper body",
        "recordRemoval: ignored_out: concept 'Class' appears in no target pattern",
        "recordRemoval: ignored_out: concept 'Record' appears in no target pattern",
    ]


def test_lint_prints_no_findings_for_clean_input(cli, corpus_args):
    result = cli(["lint", corpus_args[0], str(CORPUS / "uselessIfRemoval.tfm")])
    assert result.exit_code == 0
    assert result.out == "no findings\n"


def test_lint_positions_unknown_concepts(cli, unknown_concept_module):
    result = cli(["lint", *unknown_concept_module])
    assert result.exit_code == 0
    line = result.out.splitlines()[0]
    path = unknown_concept_module[1]
    assert line == (
        f"{path}:8:7: unknown_concept: rule 'A' references unknown "
        "concept 'Mini!Ghost'"
    )


def test_lint_strict_exits_two_on_unknown(cli, unknown_concept_module):
    result = cli(["lint", "--strict", *unknown_concept_module])
    assert result.exit_code == 2


def test_lint_strict_keeps_informational_findings_at_zero(cli, corpus_args):
    result = cli(["lint", "--strict", *corpus_args])
    assert result.exit_code == 0


def test_lint_colors_kinds_when_enabled(cli, unknown_concept_module, monkeypatch):
    # Captured stdout is not a terminal: the variable alone turns colour on.
    monkeypatch.setenv("XFORMLENS_COLOR", "1")
    result = cli(["lint", *unknown_concept_module])
    assert "\x1b[31munknown_concept\x1b[0m" in result.out


def test_lint_paints_every_kind_after_a_plain_run_in_the_same_process(cli, corpus_args, monkeypatch):
    # classInstantiation and recordRemoval share the finding that `Class`
    # appears in no target pattern. After a plain run, a coloured run in the
    # same process must paint every kind, in shared findings too.
    args = ["lint", corpus_args[0], str(CORPUS / "classInstantiation.tfm"), str(CORPUS / "recordRemoval.tfm")]
    monkeypatch.delenv("XFORMLENS_COLOR", raising=False)
    plain = cli(args).out.splitlines()
    assert plain.count("classInstantiation: ignored_out: concept 'Class' appears in no target pattern") == 1
    assert plain.count("recordRemoval: ignored_out: concept 'Class' appears in no target pattern") == 1
    monkeypatch.setenv("XFORMLENS_COLOR", "1")
    colors = {"unknown_concept": 31, "never_processed": 33, "ignored_in": 36, "ignored_out": 36}
    kind = re.compile(r": (%s): " % "|".join(colors))
    painted = [kind.sub(lambda m: f": \x1b[{colors[m[1]]}m{m[1]}\x1b[0m: ", line, count=1) for line in plain]
    assert cli(args).out.splitlines() == painted


def test_chain_check_reports_invalid_step(cli, corpus_args):
    result = cli(["chain-check", corpus_args[0], str(CORPUS / "recordRemoval.tfm")])
    assert result.exit_code == 0
    lines = result.out.splitlines()
    assert lines[0].startswith("initial: EnumLiteral, Predicate, ")
    assert lines[1] == "step 1: recordRemoval: INVALID (outside refined domain: Class)"
    assert lines[-1] == "chain: INVALID"


def test_chain_check_valid_chain_with_warning(cli, corpus_args):
    initial = ",".join(
        c
        for c in (
            "EnumLiteral,Predicate,Enumeration,DataType,Model,Class,Record,"
            "Variable,Constant,Constraint,If,Forall,IndexVariable,Array,"
            "SetDomain,IntervalDomain,VariableExpr,PropertyExpr,BoolVal,IntVal"
        ).split(",")
        if c != "Record"
    )
    result = cli(
        [
            "chain-check",
            corpus_args[0],
            str(CORPUS / "classInstantiation.tfm"),
            str(CORPUS / "recordRemoval.tfm"),
            "--initial",
            initial,
        ],
    )
    assert result.exit_code == 0
    lines = result.out.splitlines()
    assert lines[1] == "step 1: classInstantiation: VALID"
    assert lines[2] == (
        "  warning: useless step: 'Record' is introduced here and dropped "
        "by step 2 ('recordRemoval')"
    )
    assert lines[3] == "step 2: recordRemoval: VALID"
    assert lines[-1] == "chain: VALID"


def test_chain_check_rejects_unknown_initial_concept(cli, corpus_args):
    result = cli(["chain-check", *corpus_args[:2], "--initial", "Class,Spirit"])
    assert result.exit_code == 1
    assert (
        "'Spirit' is not a concrete concept of metamodel 'CPPivot'"
        in result.err
    )


@pytest.mark.parametrize("spec", [" ALL", "ALL ", " ALL\t"])
def test_all_may_have_blanks_around_it_as_a_name_may(cli, corpus_args, spec):
    check = cli(["chain-check", *corpus_args[:2], "--initial", spec])
    assert check.exit_code == 0
    assert check == cli(["chain-check", *corpus_args[:2], "--initial", "ALL"])
    plan = cli(["chain-plan", *corpus_args, "--forbid", spec])
    assert plan.exit_code == 3
    assert plan == cli(["chain-plan", *corpus_args, "--forbid", "ALL"])
    named = cli(["chain-check", *corpus_args[:2], "--initial", " Class , Record"])
    assert named == cli(["chain-check", *corpus_args[:2], "--initial", "Class,Record"])


@pytest.mark.parametrize("value", ["", ",", " , "], ids=["empty", "comma", "blank-comma"])
@pytest.mark.parametrize(
    "command, option",
    [("chain-check", "--initial"), ("chain-plan", "--initial"), ("chain-plan", "--require"), ("chain-plan", "--forbid")],
)
def test_concept_options_naming_no_concept_fail(cli, corpus_args, command, option, value):
    # An unset shell variable in the option must not turn into the empty set.
    result = cli([command, corpus_args[0], corpus_args[4], option, value])
    assert result.exit_code == 1
    assert result.out == ""
    assert result.err == f"error: {option} names no concept\n"


def test_chain_plan_prints_steps_and_final_set(cli, corpus_args):
    result = cli(["chain-plan", *corpus_args, "--forbid", "Class", "--forbid", "Record"])
    assert result.exit_code == 0
    lines = result.out.splitlines()
    assert lines[0] == "plan: 2 step(s)"
    assert lines[1] == "step 1: classInstantiation"
    assert lines[2] == "step 2: recordRemoval"
    assert lines[3].startswith("final: ")
    assert "Class" not in lines[3] and "Record" not in lines[3]


def test_chain_plan_prints_step_warnings(cli, corpus_args):
    full = xformlens.concrete_concepts(fixture_corpus()[0])
    initial = ",".join(c for c in full if c != "Record")
    result = cli(["chain-plan", *corpus_args, "--initial", initial, "--forbid", "Class,Record"])
    assert result.exit_code == 0
    assert result.out.splitlines()[:4] == [
        "plan: 2 step(s)",
        "step 1: classInstantiation",
        "  warning: useless step: 'Record' is introduced here and dropped by step 2 ('recordRemoval')",
        "step 2: recordRemoval",
    ]


def test_chain_plan_no_plan_exits_three(cli, corpus_args):
    result = cli(["chain-plan", *corpus_args, "--forbid", "Forall"])
    assert result.exit_code == 3
    assert result.out == "no plan\n"


def test_chain_plan_rejects_overlapping_goals(cli, corpus_args):
    result = cli(["chain-plan", *corpus_args, "--require", "Class", "--forbid", "Class"])
    assert result.exit_code == 1
    assert "error: " in result.err


def test_chain_plan_rejects_negative_max_len(cli, corpus_args):
    for value in ("-3", "-1"):
        result = cli(["chain-plan", *corpus_args, "--max-len", value])
        assert result.exit_code == 1
        assert result.out == ""
        assert result.err == "error: --max-len must be at least 0\n"


def test_chain_plan_accepts_max_len_zero(cli, corpus_args):
    # Zero steps leave the initial set, which holds Class.
    assert cli(["chain-plan", *corpus_args, "--max-len", "0", "--forbid", "Class"]) == (3, "no plan\n", "")


def test_chain_plan_rejects_duplicate_transformation_names(cli, corpus_args, tmp_path):
    clash = tmp_path / "enumRemovalCopy.tfm"
    text = (CORPUS / "enumRemoval.tfm").read_text(encoding="utf-8")
    clash.write_text(text.replace("module enumRemoval;", "module recordRemoval;"), encoding="utf-8")
    real = str(CORPUS / "recordRemoval.tfm")
    result = cli(["chain-plan", corpus_args[0], real, str(clash), "--forbid", "Record,EnumLiteral"])
    assert result.exit_code == 1
    assert result.out == ""
    assert result.err == (
        f"error: duplicate transformation name 'recordRemoval': {real} and {clash}\n"
    )


def test_chain_plan_zero_steps(cli, corpus_args):
    result = cli(["chain-plan", *corpus_args, "--require", "Model"])
    assert result.exit_code == 0
    assert result.out.splitlines()[0] == "plan: 0 step(s)"


def test_help_lists_all_commands(cli):
    result = cli(["--help"])
    assert result.exit_code == 0
    for command in ("analyze", "lint", "chain-check", "chain-plan"):
        assert command in result.out


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "no command"),
        (["bogus"], "'bogus'"),
        (["--version"], "'--version'"),
        (["analyze"], "metamodel"),
        (["analyze", "pivot.cmm"], "transformation"),
        (["lint", "pivot.cmm", "-x.tfm"], "'-x.tfm' (put '--' before"),
        (["analyze", "--format", "xml", "pivot.cmm", "enumRemoval.tfm"], "'xml'"),
        (["analyze", "pivot.cmm", "enumRemoval.tfm", "--format"], "--format needs a value"),
        (["analyze", "--out", "--strict", "pivot.cmm", "enumRemoval.tfm"], "--out needs a value"),
        (["chain-plan", "pivot.cmm", "enumRemoval.tfm", "--max-len", "x"], "'x'"),
        (["lint", "--stri", "pivot.cmm", "enumRemoval.tfm"], "'--stri'"),
        (["lint", "--strict=1", "pivot.cmm", "enumRemoval.tfm"], "--strict takes no value"),
    ],
    ids=["no-command", "unknown-command", "unknown-top-option", "no-paths", "no-transformations", "dash-path",
         "bad-format", "missing-value", "option-as-value", "bad-max-len", "abbreviation", "switch-with-value"],
)
def test_usage_errors_exit_one_with_one_error_line(cli, argv, named):
    result = cli(argv)
    assert result.exit_code == 1
    assert result.out == ""
    assert result.err.startswith("error: ")
    assert result.err.count("\n") == 1 and result.err.endswith("\n")
    assert named in result.err


def test_an_option_value_may_follow_an_equals_sign(cli, corpus_args):
    spaced = cli(["analyze", "--format", "json", *corpus_args])
    assert cli(["analyze", "--format=json", *corpus_args]) == spaced
    assert cli(["analyze", *corpus_args, "--format=json"]) == spaced
    assert spaced.exit_code == 0
    plan = cli(["chain-plan", *corpus_args, "--forbid", "Class", "--forbid", "Record", "--max-len", "2"])
    assert cli(["chain-plan", "--forbid=Class", *corpus_args, "--forbid=Record", "--max-len=2"]) == plan
    assert plan.out.startswith("plan: 2 step(s)\n")


def test_double_dash_ends_the_options(cli, corpus_args, tmp_path, monkeypatch):
    (tmp_path / "-x.tfm").write_bytes(Path(corpus_args[4]).read_bytes())
    monkeypatch.chdir(tmp_path)
    expected = cli(["lint", corpus_args[0], corpus_args[4]]).out
    assert cli(["lint", "--", corpus_args[0], "-x.tfm"]) == (0, expected, "")
    assert cli(["lint", "--strict", corpus_args[0], "--", "-x.tfm"]) == (0, expected, "")
    assert cli(["lint", corpus_args[0], corpus_args[4], "--"]) == (0, expected, "")
    # After `--`, a flag is a path.
    assert cli(["lint", corpus_args[0], "--", "--strict"]).err == "error: [Errno 2] No such file or directory: '--strict'\n"


_FLAGS = {
    "analyze": ["--format", "--out", "--strict"],
    "lint": ["--strict"],
    "chain-check": ["--initial"],
    "chain-plan": ["--initial", "--require", "--forbid", "--max-len"],
}


@pytest.mark.parametrize("where", ["first", "among-paths", "last"])
@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_command_help_lists_its_flags(cli, corpus_args, command, where):
    flag = "-h" if where == "among-paths" else "--help"
    argv = {"first": [flag], "among-paths": [corpus_args[0], flag, corpus_args[1]], "last": [*corpus_args, flag]}
    result = cli([command, *argv[where]])
    assert (result.exit_code, result.err) == (0, "")
    assert result.out.startswith(f"usage: xformlens {command} ")
    listed = re.findall(r"^  (--?[a-z-]+)", result.out, re.M)
    assert listed == ["-h", *_FLAGS[command]]


@pytest.mark.parametrize(
    "argv, code, lines",
    [
        (["pivot.cmm", "enumRemoval.tfm", "--forbid", "Forall", "recordRemoval.tfm"], 3, ["no plan"]),
        (["--forbid", "Forall", "pivot.cmm", "enumRemoval.tfm", "recordRemoval.tfm"], 3, ["no plan"]),
        (
            ["pivot.cmm", "classInstantiation.tfm", "--forbid", "Class", "recordRemoval.tfm", "--forbid", "Record"],
            0,
            ["plan: 2 step(s)", "step 1: classInstantiation", "step 2: recordRemoval"],
        ),
    ],
    ids=["between-paths", "before-paths", "plan-uses-files-on-both-sides"],
)
def test_chain_plan_accepts_options_among_the_paths(cli, monkeypatch, argv, code, lines):
    monkeypatch.chdir(CORPUS)
    result = cli(["chain-plan", *argv])
    assert result.exit_code == code
    assert result.out.splitlines()[: len(lines)] == lines


# Start-up cost: each of these modules adds milliseconds to every call. The
# package reads files with `open`, not pathlib, the renderers import json and
# html only when they run, the records are `collections.namedtuple`s, the
# command line is parsed without argparse, whose messages load gettext and locale,
# submodules load by the builtin __import__, not importlib, which loads warnings,
# and only the lexer, which a call served from the parse cache never loads, imports re.
_BANNED = {"dataclasses", "inspect", "click", "pathlib", "fnmatch", "urllib", "json", "html", "typing", "argparse",
           "gettext", "locale", "re", "importlib", "warnings"}


def test_cli_import_loads_no_costly_module():
    # A subprocess, because pytest itself has already imported dataclasses,
    # and `-S`, because `site` may load pathlib itself. `graphlib` loads only
    # for a metamodel with a supertype declared after its subtype, such as
    # pivot.cmm, so only a start that parses nothing is sure to skip it.
    probe = f"import sys, xformlens.cli; print(*sorted({_BANNED | {'graphlib'}} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=subprocess_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


_LOADED = "print(*sorted(m for m in sys.modules if m.startswith('xformlens')), file=sys.stderr)"
_BASE_MODULES = ["xformlens", "xformlens.analyzer", "xformlens.cli", "xformlens.metamodel"]


@pytest.mark.parametrize(
    "command, layers",
    [(["analyze"], ["report"]), (["analyze", "--format", "json"], ["report"]), (["lint"], []),
     (["chain-check"], ["chain"]), (["chain-plan", "--forbid", "Class", "--forbid", "Record"], ["chain"])],
    ids=["analyze", "analyze-json", "lint", "chain-check", "chain-plan"],
)
def test_each_command_loads_only_the_layers_it_runs(corpus_args, command, layers):
    # Under -S, in a fresh interpreter: chain commands never load report,
    # analyze never loads chain, and lint loads neither. `report` and `chain`
    # load only inside a command, and the command line is parsed there too,
    # so only a command run shows that none of them loads a costly module.
    # The first run, against an empty cache, parses every input and so loads
    # `transformation`, `parse`, `lexer` and the `re` the lexer needs; the
    # second reads every input from the cache, analyzes the plain tuples kept
    # there as they are and loads none of the four.
    probe = (
        f"import sys\nfrom xformlens.cli import main\ntry:\n    main(sys.argv[1:])\nfinally:\n    {_LOADED}\n"
        f"    print(*sorted({_BANNED - {'html'}} & set(sys.modules)), file=sys.stderr)"
    )
    for parse_layer, banned_expected in ((["lexer", "parse", "transformation"], "re"), ([], "")):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, *command, *corpus_args],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, banned = proc.stderr.split("\n")[:2]
        assert loaded.split() == sorted([*_BASE_MODULES, *(f"xformlens.{layer}" for layer in [*layers, *parse_layer])])
        assert banned == banned_expected


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys, xformlens\n{_LOADED}"],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["xformlens"]


def test_main_in_process_leaves_the_collector_alone(cli, corpus_args):
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    assert cli(["lint", *corpus_args]).exit_code == 0
    assert cli(["chain-plan", *corpus_args, "--forbid", "Forall"]).exit_code == 3
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_the_process_entry_disables_the_collector_before_the_commands_load():
    # A finder that declines every module notes whether the collector is on when
    # `xformlens.cli` is looked up, which is before any of its code runs.
    probe = (
        "import gc, sys\nseen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'xformlens.cli':\n"
        "            seen.append(gc.isenabled())\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import xformlens.__main__\nprint(seen, gc.isenabled())"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=subprocess_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False] False\n"


_RUN = "import gc, sys\nfrom xformlens.__main__ import run\ntry:\n    run()\nfinally:\n    print(gc.get_freeze_count() > 0, file=sys.stderr)"


def test_the_process_entry_freezes_the_heap_before_exit(corpus_args):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import gc\nassert not gc.get_freeze_count()\n{_RUN}", "lint", *corpus_args],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "True\n")
    assert "never_processed" in proc.stdout


@pytest.mark.parametrize("entry", [["-m", "xformlens"], ["-c", _RUN]], ids=["python-m", "run"])
def test_the_process_entry_keeps_the_exit_code(corpus_args, entry):
    proc = subprocess.run(
        [sys.executable, "-S", *entry, "chain-plan", *corpus_args, "--initial", "Class", "--require", "Forall"],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == "no plan\n"


def test_the_console_script_runs_the_process_entry():
    # A text match: tomllib is new in Python 3.11.
    pyproject = (CORPUS.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:\n\[|\Z)", pyproject, re.M | re.S)
    assert scripts is not None
    assert scripts[1].strip().splitlines() == ['xformlens = "xformlens.__main__:run"']


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "command",
    [["analyze"], ["analyze", "--format", "json"], ["lint"], ["chain-check"],
     ["chain-plan", "--forbid", "Class,Record"], ["analyze", "--out", "/dev/full"]],
    ids=["analyze", "analyze-json", "lint", "chain-check", "chain-plan", "analyze-out"],
)
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_failed_write_is_one_error_line(corpus_args, command, buffered):
    env = subprocess_env()
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "xformlens", *command, *corpus_args],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == b"error: [Errno 28] No space left on device\n"


@pytest.fixture(scope="module")
def wide_args(tmp_path_factory):
    """A 1000-concept metamodel and a module that copies one concept: every
    command's output overflows a pipe buffer (64 KiB on Linux), so a write
    fails while the command runs, not only at exit."""
    tmp = tmp_path_factory.mktemp("wide")
    mm = tmp / "wide.cmm"
    mm.write_text("metamodel W {\n" + "".join(f"\tclass C{i} {{}}\n" for i in range(1000)) + "}\n", encoding="utf-8")
    tfm = tmp / "one.tfm"
    tfm.write_text("module one;\ncreate OUT : W from IN : W;\nrule C0 { from s : W!C0 to t : W!C0() }\n", encoding="utf-8")
    return [str(mm), str(tfm)]


LARGE_OUTPUTS = pytest.mark.parametrize(
    "command", [["lint"], ["analyze"], ["analyze", "--format", "json"]], ids=["lint", "analyze", "analyze-json"]
)
BUFFERING = pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])


def _spawn(args: list[str], buffered: bool) -> subprocess.Popen:
    env = subprocess_env()
    if not buffered:  # stdout's buffer is then the raw file, whose write may be short
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "xformlens", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )


@LARGE_OUTPUTS
@BUFFERING
def test_a_reader_leaving_mid_output_gives_exit_one(cli, wide_args, command, buffered):
    assert len(cli([*command, *wide_args]).out.encode()) > 128 * 1024
    with _spawn([*command, *wide_args], buffered) as proc:
        assert os.read(proc.stdout.fileno(), 16)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""  # no traceback


@LARGE_OUTPUTS
@BUFFERING
def test_a_large_output_reaches_its_reader_whole(cli, wide_args, command, buffered):
    with _spawn([*command, *wide_args], buffered) as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    assert out == cli([*command, *wide_args]).out.encode()


class _ShortWriter(io.RawIOBase):
    """A raw file that takes at most `limit` bytes per write; with no limit, it is full and returns None."""

    def __init__(self, limit: int | None):
        self.limit, self.taken = limit, bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int | None:
        if self.limit is None:
            return None
        self.taken += data[: self.limit]
        return min(len(data), self.limit)


def test_a_short_write_is_followed_by_the_rest(cli, wide_args, monkeypatch):
    expected = cli(["lint", *wide_args]).out
    raw = _ShortWriter(1000)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    main(["lint", *wide_args])
    monkeypatch.undo()
    assert raw.taken.decode() == expected


def test_a_full_non_blocking_stdout_is_one_error_line(cli, corpus_args, monkeypatch):
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(_ShortWriter(None), encoding="utf-8", write_through=True))
    result = cli(["lint", *corpus_args])
    monkeypatch.undo()
    assert (result.exit_code, result.err) == (1, "error: stdout would block\n")


def test_lint_exits_quietly_when_stdout_is_closed(cli, wide_args):
    args = ["lint", *wide_args]
    assert len(cli(args).out.encode()) > 64 * 1024
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "xformlens", *args],
            stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""  # no traceback


def test_a_short_output_to_a_closed_stdout_exits_quietly(corpus_args):
    # The output fits stdout's buffer, so the write first fails at the flush
    # in `main`, and the bytes it kept must not be written again at exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "xformlens", "chain-check", *corpus_args],
            stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def _run_with_stdout_closed(args: list[str]) -> subprocess.CompletedProcess:
    """Run `python -m xformlens ARGS` with fd 1 closed, so that sys.stdout is None."""
    script = 'exec "$0" -m xformlens "$@" >&-'
    return subprocess.run(
        ["sh", "-c", script, sys.executable, *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=subprocess_env(), timeout=60,
    )


@pytest.mark.parametrize(
    "command",
    [["lint"], ["chain-check"], ["chain-plan", "--forbid", "Class,Record"], ["analyze"], ["analyze", "--format", "json"]],
    ids=["lint", "chain-check", "chain-plan", "analyze", "analyze-json"],
)
def test_printing_to_a_closed_stdout_is_one_error_line(corpus_args, command):
    proc = _run_with_stdout_closed([*command, *corpus_args])
    assert proc.returncode == 1
    assert proc.stderr == b"error: stdout is closed\n"


def test_analyze_out_needs_no_stdout(corpus_args, unknown_concept_module, tmp_path):
    out = tmp_path / "tables.md"
    proc = _run_with_stdout_closed(["analyze", "--out", str(out), *corpus_args])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_text(encoding="utf-8") == _expected_markdown()
    proc = _run_with_stdout_closed(["analyze", "--strict", "--out", str(out), *unknown_concept_module])
    assert (proc.returncode, proc.stderr) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failed_out_write_in_process_leaves_stdout_alone(cli, corpus_args):
    # capsys's stdout has no file descriptor, as with contextlib.redirect_stdout.
    result = cli(["analyze", "--out", "/dev/full", *corpus_args])
    assert result.exit_code == 1
    assert result.out == ""
    assert result.err == "error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(
    not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")), reason="no /dev/full or /proc/self/fd"
)
def test_a_failed_stdout_write_in_process_closes_its_devnull_descriptor(capsys, monkeypatch, corpus_args):
    with open("/dev/full", "w", encoding="utf-8") as full:
        monkeypatch.setattr(sys, "stdout", full)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(SystemExit) as exc:
            main(["lint", *corpus_args])
        assert len(os.listdir("/proc/self/fd")) == before
        monkeypatch.undo()
        # stdout now points at devnull, so the bytes its failed write kept can be flushed.
        full.flush()
    assert exc.value.code == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("command", [["lint"], ["analyze"], ["analyze", "--out", "o.md"]])
def test_an_undecodable_file_name_is_printed_as_its_bytes(tmp_path, command):
    (tmp_path / "mini.cmm").write_text("metamodel M { class A {} }\n", encoding="utf-8")
    (tmp_path / "d").mkdir()
    try:
        tfm = tmp_path / "d" / os.fsdecode(b"\xff.tfm")
        tfm.write_text(
            "module t;\ncreate OUT : M from IN : M;\nrule r { from s : M!A to t : M!Ghost() }\n", encoding="utf-8"
        )
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a non-UTF-8 file name")
    env = dict(subprocess_env(), PYTHONIOENCODING="utf-8:strict")
    argv = [sys.executable, "-m", "xformlens", *command, "mini.cmm", os.fsdecode(b"d/\xff.tfm")]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = (tmp_path / "o.md").read_bytes() if "--out" in command else proc.stdout
    assert b"d/\xff.tfm:3:30: unknown_concept: " in out


def test_an_undecodable_file_name_has_one_spelling_on_stderr(tmp_path):
    (tmp_path / "mini.cmm").write_text("metamodel M { class A {} }\n", encoding="utf-8")
    (tmp_path / "d").mkdir()
    try:
        tfm = tmp_path / "d" / os.fsdecode(b"\xfe.tfm")
        tfm.write_text("module t;\ncreate OUT : M from IN : M;\nrule r { from s : M!A to t : }\n", encoding="utf-8")
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a non-UTF-8 file name")
    env = dict(subprocess_env(), PYTHONIOENCODING="utf-8:strict")
    argv = [sys.executable, "-m", "xformlens", "lint", "mini.cmm", os.fsdecode(b"d/\xfe.tfm")]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert b"d/\xfe.tfm:3:" in proc.stderr
    assert b"\\udcfe" not in proc.stderr


def test_an_error_the_stderr_encoding_cannot_hold_is_escaped(tmp_path):
    (tmp_path / "s.cmm").write_text("metamodel M { \u00a7 }", encoding="utf-8")
    (tmp_path / "t.tfm").write_text("module t;\ncreate OUT : M from IN : M;\n", encoding="utf-8")
    env = dict(subprocess_env(), PYTHONIOENCODING="ascii")
    argv = [sys.executable, "-m", "xformlens", "lint", "s.cmm", "t.tfm"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == b"error: s.cmm:1:15: expected 'class', found '\\xa7'\n"
