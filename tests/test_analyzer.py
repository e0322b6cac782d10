"""Rule classification, report construction, lints, and fixed points."""
from __future__ import annotations

import sys

import pytest

from xformlens import (
    ConceptProfile,
    MetamodelMismatchError,
    Mode,
    analyze,
    analyze_library,
    classify_rule,
    detect_fixed_point,
    parse_metamodel,
    parse_transformation,
)

from helpers import (
    LAZY_PARENT_STUB,
    RULE_COPY_ALWAYS,
    RULE_COPY_GUARDED,
    RULE_COPY_LAZY,
    RULE_MUTATION_GUARDED,
    naive_profiles,
    named,
    wrap_rules,
)


def _rule(body, name, extra=""):
    text = wrap_rules(extra + body if not extra else extra + "\n\n" + body)
    return named(parse_transformation(text).rules, name)


def test_classify_plain_copy():
    c = classify_rule(_rule(RULE_COPY_ALWAYS, "DataType"))
    assert c.action == "copy"
    assert c.mode is Mode.ALWAYS
    assert c.targets == ("DataType",)


def test_untouched_concepts_share_the_empty_profile(pivot):
    report = analyze(parse_transformation(wrap_rules(RULE_COPY_ALWAYS)), pivot, pivot)
    assert report.profiles["DataType"] == (frozenset({Mode.ALWAYS}), frozenset(), frozenset())
    untouched = [p for c, p in report.profiles.items() if c != "DataType"]
    assert untouched and all(p == ConceptProfile() for p in untouched)
    assert len({id(p) for p in untouched}) == 1


def test_classify_guarded_copy():
    c = classify_rule(_rule(RULE_COPY_GUARDED, "SetDomain"))
    assert (c.action, c.mode) == ("copy", Mode.CONDITIONALLY)


def test_classify_lazy_copy():
    c = classify_rule(_rule(RULE_COPY_LAZY, "lazyBoolVal", extra=LAZY_PARENT_STUB))
    assert (c.action, c.mode) == ("copy", Mode.LAZILY)


def test_classify_guarded_mutation():
    c = classify_rule(_rule(RULE_MUTATION_GUARDED, "VariableExpr2IntVal"))
    assert (c.action, c.mode) == ("mutation", Mode.CONDITIONALLY)
    assert c.targets == ("IntVal",)


def test_lazy_wins_over_guard():
    body = (
        "lazy rule Both {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!IntVal (\n"
        "\t\t\ts.value > 0\n"
        "\t\t)\n"
        "\tto\n"
        "\t\tt : CPPivot!IntVal()\n"
        "}"
    )
    c = classify_rule(_rule(body, "Both"))
    assert (c.action, c.mode) == ("copy", Mode.LAZILY)


def test_classification_dedupes_targets_in_order():
    body = (
        "rule Multi {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!Variable\n"
        "\tto\n"
        "\t\ta : CPPivot!Record(),\n"
        "\t\tb : CPPivot!Variable(),\n"
        "\t\tc : CPPivot!Record()\n"
        "}"
    )
    c = classify_rule(_rule(body, "Multi"))
    assert c.action == "mutation"
    assert c.targets == ("Record", "Variable")


def test_copy_rule_extra_targets_enter_produced_as(pivot):
    body = (
        "rule CopyPlus {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!Variable\n"
        "\tto\n"
        "\t\tt : CPPivot!Variable(),\n"
        "\t\td : CPPivot!SetDomain()\n"
        "}"
    )
    report = analyze(parse_transformation(wrap_rules(body)), pivot, pivot)
    profile = report.profiles["Variable"]
    assert profile.copy_modes == frozenset({Mode.ALWAYS})
    assert profile.mutation_modes == frozenset()
    assert profile.produced_as == frozenset({"SetDomain"})


def test_profiles_are_total_and_in_declaration_order(pivot, reports):
    for report in reports.values():
        assert list(report.profiles) == list(report.source_concepts)
        assert len(report.profiles) == 20


_FACTS_PROBE = """rule Split {{
	from
		s : {src}!Class (s.kind.oclIsTypeOf({src}!Enumeration))
	to
		t : {tgt}!Class(),
		r : {tgt}!Record()
}}

rule Flatten {{
	from
		s : {src}!Variable
	to
		t : {tgt}!Record()
}}"""


def test_analyze_derives_each_metamodels_facts_afresh(pivot):
    # Each call here differs from the one before it, so facts kept from an
    # earlier call would show as wrong profiles, ignored sets or unknown concepts.
    narrowed = pivot._replace(concepts=tuple(
        c._replace(abstract=True) if c.name == "Record" else c for c in pivot.concepts if c.name != "Enumeration"
    ))
    other = narrowed._replace(name="Other")
    for source_mm, target_mm in (pivot, pivot), (narrowed, narrowed), (pivot, other), (pivot, pivot):
        body = _FACTS_PROBE.format(src=source_mm.name, tgt=target_mm.name)
        t = parse_transformation(wrap_rules(body, source_mm=source_mm.name, target_mm=target_mm.name))
        report = analyze(t, source_mm, target_mm)
        source_concrete = tuple(c.name for c in source_mm.concepts if not c.abstract)
        target_concrete = tuple(c.name for c in target_mm.concepts if not c.abstract)
        assert report.source_concepts == source_concrete
        assert report.target_concepts == target_concrete
        expected = naive_profiles(t, source_mm, target_mm)
        profiles = {
            c: ({m.value for m in p.copy_modes}, {m.value for m in p.mutation_modes}, set(p.produced_as))
            for c, p in report.profiles.items()
        }
        assert profiles == {c: (copies, mutations, set(produced)) for c, (copies, mutations, produced) in expected.items()}
        assert report.ignored_in == frozenset(source_concrete) - {"Class", "Variable", "Enumeration"}
        assert report.ignored_out == frozenset(target_concrete) - {"Class", "Record"}
        unknown = [d.subject for d in report.diagnostics if d.kind == "unknown_concept"]
        assert unknown == ([] if source_mm is pivot else ["CPPivot!Enumeration"])


def test_a_library_shares_the_findings_it_has_in_common(pivot):
    # analyze_library derives each side's facts and per-concept findings once
    # per call: the reports of one call share one target_concepts tuple and
    # each finding they have in common, and two calls share nothing.
    def library(bodies, source_mm, target_mm):
        ts = [parse_transformation(wrap_rules(b, source_mm=source_mm.name, target_mm=target_mm.name)) for b in bodies]
        reports = analyze_library(ts, source_mm, target_mm)
        return reports, [{(d.kind, d.subject): d for d in r.diagnostics} for r in reports]

    (first_report, second_report), (first, second) = library([RULE_COPY_ALWAYS, RULE_MUTATION_GUARDED], pivot, pivot)
    assert second_report.target_concepts is first_report.target_concepts
    common = first.keys() & second.keys()
    assert {kind for kind, _ in common} == {"ignored_in", "ignored_out"}
    assert all(first[key] is second[key] for key in common)

    [again_report], [again] = library([RULE_COPY_ALWAYS], pivot, pivot)
    assert again == first and again_report == first_report
    assert again_report.target_concepts is not first_report.target_concepts
    assert not any(again[key] is first[key] for key in first)

    # An exogenous library lists ignored_out over the target's concepts, in
    # its declaration order, and shares its facts and findings too.
    extra = parse_metamodel("metamodel Other { class Extra {} class DataType {} abstract class Base {} }")
    bodies = [RULE_COPY_ALWAYS.replace("t : CPPivot!", "t : Other!"),
              RULE_MUTATION_GUARDED.replace("t : CPPivot!IntVal", "t : Other!Extra")]
    (exo, exo_next), (found, found_next) = library(bodies, pivot, extra)
    assert exo.ignored_out == {"Extra"} and exo_next.ignored_out == {"DataType"}
    assert [subject for kind, subject in found if kind == "ignored_out"] == ["Extra"]
    assert [subject for kind, subject in found if kind == "ignored_in"] == [
        subject for kind, subject in first if kind == "ignored_in"
    ]
    assert exo_next.target_concepts is exo.target_concepts == ("Extra", "DataType")
    common = found.keys() & found_next.keys()
    assert {kind for kind, _ in common} == {"ignored_in"}
    assert all(found[key] is found_next[key] for key in common)


def test_a_library_call_keeps_nothing_after_it_returns(pivot):
    ts = [parse_transformation(wrap_rules(b)) for b in (RULE_COPY_ALWAYS, RULE_MUTATION_GUARDED)]
    before = sys.getrefcount(pivot)
    reports = analyze_library(ts, pivot, pivot)
    assert len(reports) == 2
    del reports
    after = sys.getrefcount(pivot)  # outside the assert, whose rewriting holds its operands
    assert after == before


def test_a_library_parses_lazily_up_to_the_first_mismatch(pivot):
    # The command line passes a generator of parses, so that the first bad
    # file in argument order is the one reported.
    taken = []

    def transformations():
        for body, target_mm in (RULE_COPY_ALWAYS, "CPPivot"), (RULE_COPY_ALWAYS, "Other"), (RULE_COPY_GUARDED, "CPPivot"):
            taken.append(target_mm)
            yield parse_transformation(wrap_rules(body, target_mm=target_mm))

    with pytest.raises(MetamodelMismatchError):
        analyze_library(transformations(), pivot, pivot)
    assert taken == ["CPPivot", "Other"]


def test_abstract_source_rule_contributes_nothing(pivot):
    report = analyze(
        parse_transformation(wrap_rules(LAZY_PARENT_STUB)), pivot, pivot
    )
    assert all(
        not p.copy_modes and not p.mutation_modes for p in report.profiles.values()
    )


def test_unresolvable_target_gates_the_whole_rule(pivot):
    body = (
        "rule Gated {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!Variable\n"
        "\tto\n"
        "\t\tt : CPPivot!Variable(),\n"
        "\t\tg : CPPivot!Ghost()\n"
        "}"
    )
    report = analyze(parse_transformation(wrap_rules(body)), pivot, pivot)
    profile = report.profiles["Variable"]
    assert not profile.copy_modes
    assert not profile.produced_as
    kinds = [d.kind for d in report.diagnostics]
    assert "unknown_concept" in kinds


def test_a_concept_read_only_by_a_gated_rule_is_never_processed(pivot):
    # BoolVal is mutated and never copied: processed, so no finding.
    body = (
        "rule Gated {\n\tfrom\n\t\ts : CPPivot!Record\n\tto\n\t\tt : CPPivot!Ghost()\n}\n\n"
        "rule Flip {\n\tfrom\n\t\ts : CPPivot!BoolVal\n\tto\n\t\tt : CPPivot!IntVal()\n}"
    )
    report = analyze(parse_transformation(wrap_rules(body)), pivot, pivot)
    assert report.profiles["Record"] == (frozenset(), frozenset(), frozenset())
    assert report.profiles["BoolVal"] == (frozenset(), frozenset({Mode.ALWAYS}), frozenset({"IntVal"}))
    findings = [(d.kind, d.subject) for d in report.diagnostics if not d.kind.startswith("ignored")]
    assert findings == [("unknown_concept", "CPPivot!Ghost"), ("never_processed", "Record")]


def test_unknown_source_concept_is_linted_and_skipped(pivot):
    body = (
        "rule Ghostly {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!Ghost\n"
        "\tto\n"
        "\t\tt : CPPivot!Variable()\n"
        "}"
    )
    report = analyze(
        parse_transformation(wrap_rules(body), path="ghost.tfm"), pivot, pivot
    )
    unknown = [d for d in report.diagnostics if d.kind == "unknown_concept"]
    assert len(unknown) == 1
    d = unknown[0]
    assert d.subject == "CPPivot!Ghost"
    assert d.message == "rule 'Ghostly' references unknown concept 'CPPivot!Ghost'"
    assert d.file == "ghost.tfm"
    assert d.line == 6 and d.column == 7


def test_unknown_lints_are_sorted_by_position(pivot):
    cases = [
        (
            "s.x.oclIsTypeOf(CPPivot!GhostTwo) and s.y.oclIsTypeOf(CPPivot!GhostOne)",
            ["CPPivot!GhostTwo", "CPPivot!GhostOne"],
            set(),
        ),
        # Only a known concept under the source qualifier resolves.
        (
            "s.a.oclIsTypeOf(CPPivot!Class) or s.b.oclIsTypeOf(CPPivot!Ghost)"
            " or s.c.oclIsTypeOf(Other!Class)",
            ["CPPivot!Ghost", "Other!Class"],
            {"Class"},
        ),
    ]
    for guard, subjects, resolved in cases:
        body = (
            "rule A {\n"
            "\tfrom\n"
            f"\t\ts : CPPivot!Variable (\n\t\t\t{guard}\n\t\t)\n"
            "\tto\n"
            "\t\tt : CPPivot!Variable()\n"
            "}"
        )
        report = analyze(parse_transformation(wrap_rules(body)), pivot, pivot)
        unknown = [d for d in report.diagnostics if d.kind == "unknown_concept"]
        assert [d.subject for d in unknown] == subjects
        assert (unknown[0].line, unknown[0].column) < (unknown[1].line, unknown[1].column)
        assert not resolved & report.ignored_in


def test_exogenous_refs_to_the_target_metamodel_resolve_but_count_for_nothing():
    source = parse_metamodel("metamodel A { class P {} class Q {} }")
    target = parse_metamodel("metamodel B { class Q {} class S {} }")
    body = (
        "rule P {\n"
        "\tfrom\n"
        "\t\ts : A!P\n"
        "\tto\n"
        "\t\tt : B!S (\n"
        "\t\t\tx <- s.y.oclIsKindOf(B!Q)\n"
        "\t\t)\n"
        "}\n\n"
        "rule P2 {\n"
        "\tfrom\n"
        "\t\ts : A!P\n"
        "\tto\n"
        "\t\tt : A!P()\n"
        "}"
    )
    t = parse_transformation(wrap_rules(body, source_mm="A", target_mm="B"))
    report = analyze(t, source, target)
    unknown = [d.subject for d in report.diagnostics if d.kind == "unknown_concept"]
    # Target patterns must still name the target metamodel.
    assert unknown == ["A!P"]
    assert report.ignored_in == frozenset({"Q"})
    assert report.ignored_out == frozenset({"Q"})
    assert report.profiles["P"].produced_as == frozenset({"S"})
    assert not report.profiles["P"].copy_modes


def test_helper_body_counts_toward_mentions_but_type_does_not(pivot):
    text = wrap_rules(
        "helper context CPPivot!Model def : probe : CPPivot!Record =\n"
        "\tself.things->select(x | x.oclIsTypeOf(CPPivot!Constant))->first();\n\n"
        + RULE_COPY_ALWAYS
    )
    report = analyze(parse_transformation(text), pivot, pivot)
    assert "Constant" not in report.ignored_in
    assert "Record" in report.ignored_in
    assert "Model" in report.ignored_in


def test_helper_unknown_context_is_linted(pivot):
    text = wrap_rules(
        "helper context CPPivot!Spirit def : probe : Boolean = true;\n\n"
        + RULE_COPY_ALWAYS
    )
    report = analyze(parse_transformation(text), pivot, pivot)
    unknown = [d for d in report.diagnostics if d.kind == "unknown_concept"]
    assert [d.subject for d in unknown] == ["CPPivot!Spirit"]
    assert unknown[0].message == (
        "helper 'probe' references unknown concept 'CPPivot!Spirit'"
    )


def test_informational_lints_on_record_removal(reports):
    diags = reports["recordRemoval"].diagnostics
    assert [(d.kind, d.subject) for d in diags] == [
        ("never_processed", "Record"),
        ("ignored_in", "Class"),
        ("ignored_out", "Class"),
        ("ignored_out", "Record"),
    ]
    never = diags[0]
    assert never.message == (
        "concept 'Record' is referenced but never copied or mutated"
    )
    assert never.file is None and never.line is None and never.column is None
    assert diags[1].message == (
        "concept 'Class' appears in no source pattern, guard, binding, or helper body"
    )
    assert diags[2].message == "concept 'Class' appears in no target pattern"


def test_refined_sets_are_complements(reports, pivot):
    for report in reports.values():
        universe = frozenset(report.source_concepts)
        assert report.refined_domain == universe - report.ignored_in
        assert report.refined_codomain == frozenset(report.target_concepts) - report.ignored_out


def test_analyze_rejects_mismatched_metamodels(pivot):
    body = (
        "rule DataType {\n"
        "\tfrom\n"
        "\t\ts : Other!DataType\n"
        "\tto\n"
        "\t\tt : Other!DataType()\n"
        "}"
    )
    t = parse_transformation(wrap_rules(body, source_mm="Other"))
    with pytest.raises(MetamodelMismatchError) as exc:
        analyze(t, pivot, pivot)
    assert (
        "transformation 'probe' reads from 'Other' "
        "but metamodel 'CPPivot' was supplied" in str(exc.value)
    )
    t = parse_transformation(wrap_rules(RULE_COPY_ALWAYS, target_mm="Other"))
    with pytest.raises(MetamodelMismatchError) as exc:
        analyze(t, pivot, pivot)
    assert str(exc.value) == "transformation 'probe' writes to 'Other' but metamodel 'CPPivot' was supplied"


def test_fixed_point_requires_endogenous_shape(pivot):
    other = parse_metamodel("metamodel Tiny { class DataType {} }")
    t = parse_transformation(
        wrap_rules(
            "rule DataType {\n"
            "\tfrom\n"
            "\t\ts : CPPivot!DataType\n"
            "\tto\n"
            "\t\tt : Tiny!DataType()\n"
            "}",
            target_mm="Tiny",
        )
    )
    report = analyze(t, pivot, other)
    assert report.fixed_point_candidate is False
    with pytest.raises(ValueError) as exc:
        detect_fixed_point(report)
    assert (
        "fixed-point detection requires an endogenous transformation; "
        "'probe' maps 'CPPivot' to 'Tiny'" in str(exc.value)
    )


def test_fixed_point_explanations(reports):
    verdict = detect_fixed_point(reports["forallRemoval"])
    assert bool(verdict)
    assert verdict.focal == ("Forall", "IndexVariable", "VariableExpr")
    assert verdict.explanation == (
        "refined codomain equals refined domain and mutation is confined "
        "to focal concepts: Forall, IndexVariable, VariableExpr"
    )

    verdict = detect_fixed_point(reports["enumRemoval"])
    assert not verdict
    assert verdict.explanation == (
        "refined domain and refined codomain differ "
        "(domain only: EnumLiteral, Enumeration)"
    )

    verdict = detect_fixed_point(reports["uselessIfRemoval"])
    assert not verdict
    assert verdict.explanation == (
        "no concept is both conditionally or lazily copied and conditionally mutated"
    )


_DIFFER = "refined domain and refined codomain differ "


# Every corpus verdict in full, and probe reports whose sets differ both
# ways and on the codomain side only. `fixed_point_candidate` takes its
# decision from `detect_fixed_point`.
_PROBES = {
    "probe": "rule R {\n\tfrom\n\t\ts : CPPivot!Class\n\tto\n\t\tt : CPPivot!Record()\n}",
    "codomain_probe": "rule R {\n\tfrom\n\t\ts : CPPivot!Class\n\tto\n\t\tt : CPPivot!Class(),\n\t\tu : CPPivot!Record()\n}",
}


@pytest.mark.parametrize(
    ("name", "verdict"),
    [
        ("classInstantiation", (False, _DIFFER + "(domain only: Class)", ())),
        ("enumRemoval", (False, _DIFFER + "(domain only: EnumLiteral, Enumeration)", ())),
        ("forallRemoval", (True, "refined codomain equals refined domain and mutation is confined to focal"
                           " concepts: Forall, IndexVariable, VariableExpr", ("Forall", "IndexVariable", "VariableExpr"))),
        ("recordRemoval", (False, _DIFFER + "(domain only: Record)", ())),
        ("uselessIfRemoval", (False, "no concept is both conditionally or lazily copied and conditionally mutated", ())),
        ("probe", (False, _DIFFER + "(domain only: Class; codomain only: Record)", ())),
        ("codomain_probe", (False, _DIFFER + "(codomain only: Record)", ())),
    ],
)
def test_fixed_point_verdicts_and_candidates(pivot, reports, name, verdict):
    if name in _PROBES:
        report = analyze(parse_transformation(wrap_rules(_PROBES[name])), pivot, pivot)
    else:
        report = reports[name]
    assert tuple(detect_fixed_point(report)) == verdict
    assert report.fixed_point_candidate is verdict[0]


@pytest.mark.parametrize("mutation", ["rule", "lazy rule"], ids=["always", "lazily"])
def test_fixed_point_needs_a_conditional_mutation(pivot, mutation):
    # BoolVal is conditionally copied but mutated only always or lazily, so
    # no concept is focal, although the domain equals the codomain and no
    # other concept is mutated.
    body = (
        "rule BoolVal {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!BoolVal (\n"
        "\t\t\ts.value\n"
        "\t\t)\n"
        "\tto\n"
        "\t\tt : CPPivot!BoolVal()\n"
        "}\n\n"
        f"{mutation} Flip {{\n"
        "\tfrom\n"
        "\t\ts : CPPivot!BoolVal\n"
        "\tto\n"
        "\t\tt : CPPivot!IntVal()\n"
        "}\n\n"
        "rule IntVal {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!IntVal\n"
        "\tto\n"
        "\t\tt : CPPivot!IntVal()\n"
        "}"
    )
    report = analyze(parse_transformation(wrap_rules(body)), pivot, pivot)
    assert report.profiles["BoolVal"].copy_modes == {Mode.CONDITIONALLY}
    assert report.profiles["BoolVal"].mutation_modes == {Mode.ALWAYS if mutation == "rule" else Mode.LAZILY}
    assert report.refined_domain == report.refined_codomain
    verdict = detect_fixed_point(report)
    assert not verdict
    assert verdict.explanation == "no concept is both conditionally or lazily copied and conditionally mutated"
    assert report.fixed_point_candidate is False


def test_a_lazily_copied_concept_can_be_focal(pivot):
    body = (
        "lazy rule BoolVal {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!BoolVal\n"
        "\tto\n"
        "\t\tt : CPPivot!BoolVal()\n"
        "}\n\n"
        "rule Flip {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!BoolVal (\n"
        "\t\t\tnot s.value\n"
        "\t\t)\n"
        "\tto\n"
        "\t\tt : CPPivot!IntVal()\n"
        "}\n\n"
        "rule IntVal {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!IntVal\n"
        "\tto\n"
        "\t\tt : CPPivot!IntVal()\n"
        "}"
    )
    report = analyze(parse_transformation(wrap_rules(body)), pivot, pivot)
    assert report.profiles["BoolVal"].copy_modes == {Mode.LAZILY}
    verdict = detect_fixed_point(report)
    assert verdict
    assert verdict.focal == ("BoolVal",)
    assert report.fixed_point_candidate is True


def test_stray_mutation_blocks_fixed_point(pivot):
    # IntVal is mutated outside the focal set, always or only conditionally:
    # either way a mutation.
    for stray_guard, modes in (("", {Mode.ALWAYS}), (" (\n\t\t\ts.value > 0\n\t\t)", {Mode.CONDITIONALLY})):
        body = (
            "rule BoolVal {\n"
            "\tfrom\n"
            "\t\ts : CPPivot!BoolVal (\n"
            "\t\t\ts.value\n"
            "\t\t)\n"
            "\tto\n"
            "\t\tt : CPPivot!BoolVal()\n"
            "}\n\n"
            "rule Flip {\n"
            "\tfrom\n"
            "\t\ts : CPPivot!BoolVal (\n"
            "\t\t\tnot s.value\n"
            "\t\t)\n"
            "\tto\n"
            "\t\tt : CPPivot!IntVal()\n"
            "}\n\n"
            "rule Stray {\n"
            "\tfrom\n"
            f"\t\ts : CPPivot!IntVal{stray_guard}\n"
            "\tto\n"
            "\t\tt : CPPivot!BoolVal()\n"
            "}"
        )
        report = analyze(parse_transformation(wrap_rules(body)), pivot, pivot)
        assert report.profiles["IntVal"].mutation_modes == modes
        assert report.refined_domain == report.refined_codomain
        verdict = detect_fixed_point(report)
        assert not verdict
        assert verdict.explanation == "concepts outside the focal set (BoolVal) are mutated: IntVal"
        assert verdict.focal == ("BoolVal",)


def test_profile_fold_matches_reference_oracle(pivot, transformations):
    # Beyond the corpus: a mutation rule whose abstract target stays out of produced_as.
    abstract_target = parse_transformation(
        wrap_rules("rule Widen {\n\tfrom\n\t\ts : CPPivot!BoolVal\n\tto\n\t\tt : CPPivot!Expression()\n}")
    )
    for t in (*transformations, abstract_target):
        report = analyze(t, pivot, pivot)
        expected = naive_profiles(t, pivot, pivot)
        for concept, (copy_modes, mutation_modes, produced) in expected.items():
            profile = report.profiles[concept]
            assert {m.value for m in profile.copy_modes} == copy_modes
            assert {m.value for m in profile.mutation_modes} == mutation_modes
            assert set(profile.produced_as) == set(produced)
