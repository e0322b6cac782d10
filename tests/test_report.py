"""Table construction, group labeling, and the four render formats."""
from __future__ import annotations

import json
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

from xformlens import (
    AnalysisReport,
    ConceptProfile,
    Mode,
    Table,
    analyze,
    detect_fixed_point,
    ignored_table,
    parse_metamodel,
    parse_transformation,
    profile_groups,
    referenced_table,
    render,
    report_table,
    report_to_json,
    table_from_json,
)
import xformlens.analyzer as analyzer_module
import xformlens.report as report_module
from xformlens.cli import COMMANDS
from xformlens.report import FORMATS, mode_set_label, render_reports

from helpers import wrap_rules

ROOT = Path(__file__).resolve().parents[1]


def test_mode_set_label_display_order():
    assert mode_set_label(frozenset()) == "never"
    assert mode_set_label(frozenset({Mode.ALWAYS})) == "always"
    assert mode_set_label(frozenset({Mode.CONDITIONALLY})) == "cond."
    assert mode_set_label(frozenset({Mode.LAZILY})) == "lazily"
    assert (
        mode_set_label(frozenset({Mode.CONDITIONALLY, Mode.LAZILY}))
        == "lazily, cond."
    )
    assert (
        mode_set_label(frozenset({Mode.ALWAYS, Mode.CONDITIONALLY, Mode.LAZILY}))
        == "lazily, cond., always"
    )


def test_table_arity_is_validated():
    with pytest.raises(ValueError):
        Table("t", ("a", "b"), (("only",),))
    with pytest.raises(ValueError):
        Table("t", ("a", "b"))._replace(rows=(("only",),))
    # The message names the first bad row's arity, not a later one's.
    with pytest.raises(ValueError, match=r"^row arity 3 does not match header arity 2$"):
        Table("t", ("a", "b"), (("x", "y"), ("1", "2", "3"), ("only",)))
    with pytest.raises(ValueError, match=r"^row arity 1 does not match header arity 2$"):
        Table("t", ("a", "b"), (("x", "y"), ("only",), ("1", "2", "3")))


def test_markdown_render_escapes_pipes():
    table = Table("Demo", ("col|a", "b"), (("x|y", "z"),))
    text = render(table, "markdown")
    assert text.splitlines() == [
        "### Demo",
        "",
        "| col\\|a | b |",
        "| --- | --- |",
        "| x\\|y | z |",
    ]
    assert text.endswith("\n")

    # Only a late body row holds a pipe: every cell is still checked.
    table = Table("Late", ("a", "b"), (("p", "q"), ("r", "s"), ("t", "u|v")))
    assert render(table, "markdown") == "### Late\n\n| a | b |\n| --- | --- |\n| p | q |\n| r | s |\n| t | u\\|v |\n"

    # No cell holds one: the text is as laid out, and a backslash stays single.
    table = Table("Plain \\ |", ("a\\b", "c"), (("d", "e\\"),))
    assert render(table, "markdown") == "### Plain \\ |\n\n| a\\b | c |\n| --- | --- |\n| d | e\\ |\n"


def test_html_render_escapes_markup():
    table = Table("A <b>", ("h&1", "h2"), (("<x>", "'q'"),))
    text = render(table, "html")
    assert "<h3>A &lt;b&gt;</h3>" in text
    assert "<th>h&amp;1</th>" in text
    assert "&lt;x&gt;" in text
    assert "<table>" in text and "</table>" in text


def test_latex_render_escapes_specials():
    table = Table("T", ("a", "b"), (("50%", "x_y & #1"),))
    text = render(table, "latex")
    lines = text.splitlines()
    assert lines[0] == "% T"
    assert lines[1] == "\\begin{tabular}{|c|c|}"
    assert "50\\%" in text
    assert "x\\_y \\& \\#1" in text
    assert text.count("\\hline") == 3
    assert lines[-1] == "\\end{tabular}"


def test_latex_render_escapes_backslash():
    table = Table("T", ("a",), (("c:\\temp",),))
    assert "c:\\textbackslash{}temp" in render(table, "latex")


def test_json_render_round_trips():
    table = Table("T", ("a", "b"), (("1", "2"), ("3", "4")))
    blob = render(table, "json")
    assert blob.endswith("\n")
    assert table_from_json(blob) == table


def test_unknown_format_is_rejected():
    table = Table("T", ("a",), ())
    with pytest.raises(ValueError) as exc:
        render(table, "xml")
    assert str(exc.value) == "unknown format 'xml' (expected one of markdown, html, latex, json)"
    # `--format` takes exactly these choices, in this order.
    assert FORMATS == ("markdown", "html", "latex", "json") == COMMANDS["analyze"][1]["--format"][1]


def test_table_from_json_validates_shape():
    for data, message in [
        ({"title": "T", "header": ["a"]}, "table JSON lacks key 'rows'"),
        ({"title": 3, "header": ["a"], "rows": []}, "table title must be a string"),
        ({"title": "T", "header": ["a"], "rows": [["x", "y"]]}, "row arity 2 does not match header arity 1"),
        ([], "table JSON must be an object"),
        ({"title": "T", "header": [1], "rows": []}, "table header must be a list of strings"),
        ({"title": "T", "header": ["a"], "rows": ["x"]}, "table rows must be lists of strings"),
    ]:
        with pytest.raises(ValueError) as exc:
            table_from_json(json.dumps(data))
        assert str(exc.value) == message


def test_ignored_table_shape(reports):
    table = ignored_table(list(reports.values()))
    assert table.title == "Ignored metaelements"
    assert table.header == (
        "Transformation",
        "Ignored in metaelements",
        "Ignored out metaelements",
    )
    rows = {r[0]: r for r in table.rows}
    assert rows["classInstantiation"] == ("classInstantiation", "", "Class")
    assert rows["recordRemoval"] == ("recordRemoval", "Class", "Class, Record")
    assert rows["forallRemoval"] == ("forallRemoval", "", "")


def test_profile_groups_cover_refined_domain_only(reports):
    report = reports["recordRemoval"]
    groups = profile_groups(report)
    covered = [c for g in groups for c in g.concepts]
    assert sorted(covered) == sorted(report.refined_domain)
    assert "Class" not in covered
    for group in groups:
        assert group.rendered_label.startswith("Copy: ")
        assert " / Mutation: " in group.rendered_label


def test_profile_groups_come_in_the_referenced_tables_column_order():
    # One concept per copy/mutation mode-set pair, declared in the reverse of the display order.
    mode_sets = [frozenset(c) for n in range(len(Mode) + 1) for c in combinations(Mode, n)]
    pairs = sorted(product(mode_sets, mode_sets), key=lambda p: (len(p[0]), *map(mode_set_label, p)), reverse=True)
    profiles = {f"C{i}": ConceptProfile(cm, mm) for i, (cm, mm) in enumerate(pairs)}
    report = AnalysisReport("t", "M", "M", profiles, (), frozenset(), frozenset(), frozenset(profiles), frozenset())
    groups = profile_groups(report)
    assert [(g.copy_modes, g.mutation_modes) for g in groups] == pairs[::-1]
    assert tuple(g.rendered_label for g in groups) == referenced_table([report]).header[1:]


def test_referenced_table_header_and_cells(reports):
    table = referenced_table(list(reports.values()))
    assert table.title == "Referenced metaelements"
    assert table.header[0] == "Transformation"
    assert table.header[1] == "Copy: never / Mutation: cond."
    row = dict(zip(table.header, next(r for r in table.rows if r[0] == "enumRemoval")))
    assert row["Copy: never / Mutation: never"] == "EnumLiteral, Enumeration"
    assert row["Copy: always / Mutation: never"] == "ALL OTHER"
    assert row["Copy: cond. / Mutation: cond."] == "Variable, VariableExpr"
    assert row["Copy: lazily, cond. / Mutation: cond."] == "NONE"


def test_all_other_marks_the_unique_largest_group(pivot):
    body = (
        "rule EnumLiteral {\n"
        "\tfrom\n\t\ts : CPPivot!EnumLiteral\n"
        "\tto\n\t\tt : CPPivot!EnumLiteral()\n}\n\n"
        "rule Predicate {\n"
        "\tfrom\n\t\ts : CPPivot!Predicate\n"
        "\tto\n\t\tt : CPPivot!Predicate()\n}\n\n"
        "rule Model {\n"
        "\tfrom\n\t\ts : CPPivot!Model\n"
        "\tto\n\t\tt : CPPivot!Model()\n}\n\n"
        "rule DataType {\n"
        "\tfrom\n\t\ts : CPPivot!DataType (\n\t\t\ts.named\n\t\t)\n"
        "\tto\n\t\tt : CPPivot!DataType()\n}\n\n"
        "rule Variable {\n"
        "\tfrom\n\t\ts : CPPivot!Variable (\n\t\t\ts.typed\n\t\t)\n"
        "\tto\n\t\tt : CPPivot!Variable()\n}"
    )
    report = analyze(parse_transformation(wrap_rules(body)), pivot, pivot)
    table = referenced_table([report])
    row = dict(zip(table.header, table.rows[0]))
    # The row universe is the refined domain: exactly the five concepts
    # the rules mention. always/never (3) is the unique largest group.
    assert row["Copy: always / Mutation: never"] == "ALL OTHER"
    assert row["Copy: cond. / Mutation: never"] == "DataType, Variable"


def test_all_other_tie_renders_every_group_explicitly():
    from xformlens import parse_metamodel

    tiny = parse_metamodel(
        "metamodel CPPivot { class EnumLiteral {} class Predicate {} }"
    )
    body = (
        "rule EnumLiteral {\n"
        "\tfrom\n\t\ts : CPPivot!EnumLiteral (\n"
        "\t\t\tnot s.x.oclIsTypeOf(CPPivot!Predicate)\n\t\t)\n"
        "\tto\n\t\tt : CPPivot!EnumLiteral()\n}"
    )
    report = analyze(parse_transformation(wrap_rules(body)), tiny, tiny)
    table = referenced_table([report])
    row = dict(zip(table.header, table.rows[0]))
    # cond./never and never/never both hold one concept: tie, so both
    # groups stay explicit.
    assert row["Copy: cond. / Mutation: never"] == "EnumLiteral"
    assert row["Copy: never / Mutation: never"] == "Predicate"
    assert "ALL OTHER" not in row.values()


def test_report_table_fields_and_diagnostics(reports):
    table = report_table(reports["recordRemoval"])
    assert table.title == "report: recordRemoval"
    assert table.header == ("field", "value")
    fields = dict(table.rows[:7])
    assert fields["source metamodel"] == "CPPivot"
    assert fields["target metamodel"] == "CPPivot"
    assert fields["ignored in"] == "Class"
    assert fields["ignored out"] == "Class, Record"
    assert fields["fixed point candidate"] == "no"
    assert "Class" not in fields["refined domain"]
    diag_rows = [r for r in table.rows if r[0] == "diagnostic"]
    assert diag_rows[0][1] == (
        "never_processed: concept 'Record' is referenced but never "
        "copied or mutated"
    )


def test_exogenous_tables_list_target_side_sets_in_target_order():
    source = parse_metamodel("metamodel S { class A {} class B {} class C {} }")
    target = parse_metamodel("metamodel T { class C {} class X {} class A {} }")
    body = "rule R { from s : S!A to t : T!C() }"
    report = analyze(parse_transformation(wrap_rules(body, source_mm="S", target_mm="T")), source, target)
    fields = dict(report_table(report).rows)
    assert fields["ignored in"] == "B, C"
    assert fields["ignored out"] == "X, A"
    assert fields["refined domain"] == "A"
    assert fields["refined codomain"] == "C"
    assert ignored_table([report]).rows == (("probe", "B, C", "X, A"),)


def test_report_table_positions_diagnostics_with_locations(pivot):
    body = (
        "rule Ghostly {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!Ghost\n"
        "\tto\n"
        "\t\tt : CPPivot!Variable()\n"
        "}"
    )
    report = analyze(
        parse_transformation(wrap_rules(body), path="probe.tfm"), pivot, pivot
    )
    table = report_table(report)
    diag_rows = [r[1] for r in table.rows if r[0] == "diagnostic"]
    assert diag_rows[0] == (
        "probe.tfm:6:7: unknown_concept: rule 'Ghostly' references "
        "unknown concept 'CPPivot!Ghost'"
    )


def test_report_to_json_schema_order(reports):
    blob = report_to_json(reports["forallRemoval"])
    data = json.loads(blob)
    assert list(data) == [
        "transformation",
        "source_mm",
        "target_mm",
        "ignored_in",
        "ignored_out",
        "refined_domain",
        "refined_codomain",
        "fixed_point_candidate",
        "profiles",
        "diagnostics",
    ]
    assert data["fixed_point_candidate"] is True
    profile = data["profiles"][0]
    assert list(profile) == ["concept", "copy_modes", "mutation_modes", "produced_as"]
    forall = next(p for p in data["profiles"] if p["concept"] == "Forall")
    assert forall["copy_modes"] == ["conditionally", "lazily"]
    assert forall["mutation_modes"] == ["conditionally"]
    assert forall["produced_as"] == ["If", "BoolVal"]


def test_analyze_json_calls_report_to_json_once_per_report(reports, monkeypatch):
    # The benchmark's tracer times the JSON encoding by wrapping this module
    # global; a writer inlined into render_reports would hide it.
    corpus = list(reports.values())
    expected = render_reports(corpus, "json")
    calls = []

    def counting(report, *depth):
        calls.append(report)
        return report_to_json(report, *depth)

    monkeypatch.setattr(report_module, "report_to_json", counting)
    assert render_reports(corpus, "json") == expected
    assert calls == corpus


def test_analyze_json_keeps_nothing_after_it_returns(pivot, transformations):
    # A fresh metamodel object gives the reports a target universe of their own.
    twin = pivot._replace()
    corpus = [analyze(t, twin, twin) for t in transformations]
    universe = corpus[-1].target_concepts
    before = sys.getrefcount(universe)
    render_reports(corpus, "json")
    after = sys.getrefcount(universe)  # outside the assert, whose rewriting holds its operands
    assert after == before


@pytest.mark.parametrize("fmt", ["markdown", "json"])
def test_render_reports_decides_each_fixed_point_through_detect_fixed_point(reports, fmt, monkeypatch):
    # The benchmark's tracer times the fixed-point decision by wrapping this
    # module global; a decision taken by another function would hide it.
    corpus = list(reports.values())
    expected = render_reports(corpus, fmt)
    calls = []

    def counting(report):
        calls.append(report)
        return detect_fixed_point(report)

    monkeypatch.setattr(analyzer_module, "detect_fixed_point", counting)
    assert render_reports(corpus, fmt) == expected
    assert calls == corpus


def test_report_to_json_at_a_depth_indents_every_later_line(reports):
    # No string in ensure_ascii JSON holds a raw newline, so indenting each
    # line after the first is what writing the report at a depth must give.
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    files = workloads.build("wide-metamodel", ROOT, 1).files
    (mm_text,) = (text for path, text in files.items() if path.endswith(".cmm"))
    tfm_path = min(path for path in files if path.endswith(".tfm"))
    mm = parse_metamodel(mm_text)
    wide = analyze(parse_transformation(files[tfm_path], path=tfm_path), mm, mm)
    assert len(wide.diagnostics) > 1000
    for report in [*reports.values(), wide]:
        assert report_to_json(report, "  ") == report_to_json(report).replace("\n", "\n  ")
        assert report_to_json(report, "") == report_to_json(report)


def test_report_to_json_writes_the_same_without_the_c_escaper(reports, monkeypatch):
    expected = [report_to_json(r) for r in reports.values()]
    monkeypatch.setitem(sys.modules, "_json", None)  # so `from _json import ...` raises ImportError
    assert [report_to_json(r) for r in reports.values()] == expected


def test_report_to_json_lists_produced_as_in_each_reports_target_order():
    # Two reports with the same concept and profile over target universes
    # in different orders: a profile entry kept for the first must not be
    # written for the second.
    profile = ConceptProfile(frozenset({Mode.ALWAYS}), frozenset(), frozenset({"A", "B"}))
    first = AnalysisReport("t", "S", "T", {"C": profile}, ("A", "B"), *(frozenset(),) * 4)
    second = first._replace(target_concepts=("B", "A"))
    for report, order in (first, ["A", "B"]), (second, ["B", "A"]), (first, ["A", "B"]):
        assert json.loads(report_to_json(report))["profiles"][0]["produced_as"] == order


def test_report_to_json_omits_absent_positions(reports):
    data = json.loads(report_to_json(reports["recordRemoval"]))
    for diag in data["diagnostics"]:
        assert list(diag) == ["kind", "subject", "message"]


def test_report_to_json_keeps_positions_when_present(pivot):
    body = (
        "rule Ghostly {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!Ghost\n"
        "\tto\n"
        "\t\tt : CPPivot!Variable()\n"
        "}"
    )
    report = analyze(
        parse_transformation(wrap_rules(body), path="probe.tfm"), pivot, pivot
    )
    diag = json.loads(report_to_json(report))["diagnostics"][0]
    assert list(diag) == ["kind", "subject", "message", "file", "line", "column"]
    assert diag["file"] == "probe.tfm"
