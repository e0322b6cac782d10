"""Acceptance suite: one test per shipped guarantee.

Each test is marked with its criterion number; the conftest summary
prints one PASS/FAIL line per criterion at the end of the run.
"""
from __future__ import annotations

import random
import time

import pytest

from xformlens import (
    Mode,
    analyze,
    check_chain,
    classify_rule,
    concrete_concepts,
    detect_fixed_point,
    ignored_table,
    parse_metamodel,
    parse_transformation,
    plan_chain,
    pretty_print,
    profile_groups,
    propagate,
    referenced_table,
    render,
    report_table,
    table_from_json,
)
from xformlens.report import mode_set_label

from helpers import (
    LAZY_PARENT_STUB,
    RULE_COPY_ALWAYS,
    RULE_COPY_GUARDED,
    RULE_COPY_LAZY,
    RULE_MUTATION_GUARDED,
    enumerate_best_plan_length,
    fixture_corpus,
    naive_propagate,
    named,
    random_metamodel_text,
    random_transformation_text,
    wrap_rules,
)

EXPECTED_IGNORED_TABLE = """### Ignored metaelements

| Transformation | Ignored in metaelements | Ignored out metaelements |
| --- | --- | --- |
| classInstantiation |  | Class |
| enumRemoval |  | EnumLiteral, Enumeration |
| forallRemoval |  |  |
| recordRemoval | Class | Class, Record |
| uselessIfRemoval |  |  |
"""

EXPECTED_GROUPS = {
    "classInstantiation": {
        ("never", "never"): {"Class"},
        ("always", "never"): {
            "EnumLiteral", "Predicate", "Enumeration", "DataType", "Model",
        },
        ("cond.", "cond."): {"Variable"},
        ("cond.", "never"): {
            "Record", "Constant", "Constraint", "If", "Forall",
            "IndexVariable", "Array", "SetDomain", "IntervalDomain",
            "VariableExpr", "PropertyExpr", "BoolVal", "IntVal",
        },
    },
    "enumRemoval": {
        ("never", "never"): {"EnumLiteral", "Enumeration"},
        ("always", "never"): {
            "Predicate", "DataType", "Model", "Class", "Record", "Constant",
            "Constraint", "If", "Forall", "IndexVariable", "Array",
            "SetDomain", "IntervalDomain", "PropertyExpr", "BoolVal",
            "IntVal",
        },
        ("cond.", "cond."): {"Variable", "VariableExpr"},
    },
    "forallRemoval": {
        ("always", "never"): {
            "EnumLiteral", "Predicate", "Enumeration", "DataType", "Model",
            "Class", "Record", "Variable", "Constant", "Array",
        },
        ("cond.", "cond."): {"IndexVariable"},
        ("cond.", "never"): {"SetDomain", "IntervalDomain"},
        ("lazily, cond.", "cond."): {"Forall", "VariableExpr"},
        ("lazily, cond.", "never"): {
            "Constraint", "If", "PropertyExpr", "BoolVal", "IntVal",
        },
    },
    "recordRemoval": {
        ("never", "cond."): {"PropertyExpr"},
        ("never", "never"): {"Record"},
        ("always", "never"): {
            "EnumLiteral", "Predicate", "Enumeration", "DataType", "Model",
            "Constant", "Constraint", "If", "Forall", "IndexVariable",
        },
        ("cond.", "never"): {
            "Variable", "Array", "SetDomain", "IntervalDomain",
            "VariableExpr", "BoolVal", "IntVal",
        },
    },
    "uselessIfRemoval": {
        ("always", "never"): {
            "EnumLiteral", "Predicate", "Enumeration", "DataType", "Model",
            "Class", "Record", "Variable", "Constant", "Constraint",
            "Forall", "IndexVariable", "Array", "SetDomain",
            "IntervalDomain", "VariableExpr", "PropertyExpr", "BoolVal",
            "IntVal",
        },
        ("cond.", "never"): {"If"},
    },
}


@pytest.mark.criterion(1)
def test_criterion_1_ignored_table_reproduction():
    started = time.perf_counter()
    mm, transformations = fixture_corpus()
    reports = [analyze(t, mm, mm) for t in transformations]
    rendered = render(ignored_table(reports), "markdown")
    elapsed = time.perf_counter() - started
    assert rendered == EXPECTED_IGNORED_TABLE
    assert elapsed < 1.0


@pytest.mark.criterion(2)
def test_criterion_2_profile_group_memberships(reports):
    started = time.perf_counter()
    for name, expected in EXPECTED_GROUPS.items():
        groups = profile_groups(reports[name])
        actual = {
            (mode_set_label(g.copy_modes), mode_set_label(g.mutation_modes)):
                set(g.concepts)
            for g in groups
        }
        assert actual == expected, name

    table = referenced_table(list(reports.values()))
    rows = {r[0]: dict(zip(table.header, r)) for r in table.rows}
    ci = rows["classInstantiation"]
    assert ci["Copy: always / Mutation: never"] == (
        "EnumLiteral, Predicate, Enumeration, DataType, Model"
    )
    assert ci["Copy: cond. / Mutation: never"] == "ALL OTHER"
    for name in ("enumRemoval", "forallRemoval", "recordRemoval", "uselessIfRemoval"):
        assert rows[name]["Copy: always / Mutation: never"] == "ALL OTHER", name
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0


@pytest.mark.criterion(3)
def test_criterion_3_reference_snippets_classify():
    expectations = [
        (RULE_COPY_ALWAYS, "DataType", "", "copy", Mode.ALWAYS),
        (RULE_COPY_GUARDED, "SetDomain", "", "copy", Mode.CONDITIONALLY),
        (RULE_COPY_LAZY, "lazyBoolVal", LAZY_PARENT_STUB, "copy", Mode.LAZILY),
        (
            RULE_MUTATION_GUARDED,
            "VariableExpr2IntVal",
            "",
            "mutation",
            Mode.CONDITIONALLY,
        ),
    ]
    for snippet, name, extra, action, mode in expectations:
        body = extra + "\n\n" + snippet if extra else snippet
        t = parse_transformation(wrap_rules(body))
        c = classify_rule(named(t.rules, name))
        assert (c.action, c.mode) == (action, mode), name


@pytest.mark.criterion(4)
def test_criterion_4_fixed_point_detection(reports):
    verdict = detect_fixed_point(reports["forallRemoval"])
    assert bool(verdict) is True
    assert set(verdict.focal) == {"Forall", "IndexVariable", "VariableExpr"}
    assert reports["forallRemoval"].fixed_point_candidate is True

    verdict = detect_fixed_point(reports["enumRemoval"])
    assert bool(verdict) is False
    assert reports["enumRemoval"].fixed_point_candidate is False
    assert "domain only: EnumLiteral, Enumeration" in verdict.explanation


@pytest.mark.criterion(5)
def test_criterion_5_chain_validation(reports, pivot):
    full = frozenset(concrete_concepts(pivot))
    plan = check_chain(full, [reports["recordRemoval"]])
    assert not plan.goal_met
    assert not plan.steps[0].valid

    plan = check_chain(
        full, [reports["classInstantiation"], reports["recordRemoval"]]
    )
    assert plan.goal_met
    assert all(s.valid for s in plan.steps)


@pytest.mark.criterion(6)
def test_criterion_6_planner_matches_exhaustive_search(reports, pivot):
    started = time.perf_counter()
    rng = random.Random(616161)
    library = list(reports.values())
    ordered = list(concrete_concepts(pivot))
    instances = 0
    while instances < 24:
        initial = frozenset(c for c in ordered if rng.random() < 0.85)
        required = frozenset(c for c in initial if rng.random() < 0.08)
        rest = [c for c in ordered if c not in required]
        forbidden = frozenset(c for c in rest if rng.random() < 0.12)
        plan = plan_chain(library, initial, required, forbidden, max_len=4)
        expected = enumerate_best_plan_length(
            library, initial, required, forbidden, max_len=4
        )
        got = None if plan is None else len(plan.steps)
        assert got == expected, (sorted(initial), sorted(required), sorted(forbidden))
        if plan is not None:
            assert plan.goal_met
        instances += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0


@pytest.mark.criterion(7)
def test_criterion_7_randomized_invariants():
    rng = random.Random(777001)
    violations = 0
    for _ in range(1000):
        mm = parse_metamodel(random_metamodel_text(rng))
        names = list(concrete_concepts(mm))
        body = random_transformation_text(rng, names)
        t = parse_transformation(body)
        report = analyze(t, mm, mm)

        if tuple(report.profiles) != concrete_concepts(mm):
            violations += 1

        grouped = [c for g in profile_groups(report) for c in g.concepts]
        if len(grouped) != len(set(grouped)) or set(grouped) != set(
            report.refined_domain
        ):
            violations += 1

        source = rng.choice(names)
        target = rng.choice(names)
        extra = f"rule zzExtra {{ from s : MM!{source} to t : MM!{target}() }}"
        bigger = analyze(
            parse_transformation(body.rstrip("\n") + "\n" + extra + "\n"), mm, mm
        )
        for concept in names:
            small_p = report.profiles[concept]
            big_p = bigger.profiles[concept]
            if not (
                small_p.copy_modes <= big_p.copy_modes
                and small_p.mutation_modes <= big_p.mutation_modes
                and small_p.produced_as <= big_p.produced_as
            ):
                violations += 1
                break

        small = frozenset(c for c in names if rng.random() < 0.4)
        large = small | frozenset(c for c in names if rng.random() < 0.4)
        if not propagate(small, report) <= propagate(large, report):
            violations += 1
        if propagate(small, report) != naive_propagate(small, report):
            violations += 1

    assert violations == 0


@pytest.mark.criterion(8)
def test_criterion_8_round_trips(pivot, reports):
    printed = pretty_print(pivot)
    assert parse_metamodel(printed) == pivot
    assert pretty_print(parse_metamodel(printed)) == printed

    tables = [
        ignored_table(list(reports.values())),
        referenced_table(list(reports.values())),
    ]
    tables.extend(report_table(r) for r in reports.values())
    for table in tables:
        assert table_from_json(render(table, "json")) == table
