"""Concept-set propagation, chain validation, and chain planning."""
from __future__ import annotations

import random
from collections import deque

import pytest

from xformlens import (
    ChainCompatibilityError,
    analyze,
    check_chain,
    concrete_concepts,
    parse_metamodel,
    parse_transformation,
    plan_chain,
    propagate,
)
from xformlens import chain

from helpers import enumerate_best_plan_length, naive_propagate, reference_plan, wrap_rules


@pytest.fixture(scope="module")
def full(pivot):
    return frozenset(concrete_concepts(pivot))


def test_propagate_empty_set_is_empty(reports):
    assert propagate(frozenset(), reports["classInstantiation"]) == frozenset()


def test_propagate_keeps_copies_and_maps_mutations(reports, full):
    out = propagate(full, reports["classInstantiation"])
    assert out == full - {"Class"}
    out = propagate({"Variable"}, reports["enumRemoval"])
    assert out == {"Variable", "IntervalDomain"}
    out = propagate({"Forall"}, reports["forallRemoval"])
    assert out == {"Forall", "If", "BoolVal"}


def test_propagate_drops_unprofiled_concepts(reports):
    assert propagate({"NotAConcept"}, reports["enumRemoval"]) == frozenset()


def test_propagate_matches_reference_on_random_subsets(reports, full):
    rng = random.Random(20260816)
    ordered = sorted(full)
    for report in reports.values():
        for _ in range(25):
            subset = frozenset(c for c in ordered if rng.random() < 0.5)
            assert propagate(subset, report) == naive_propagate(subset, report)


def test_empty_chain_is_trivially_met(full):
    plan = check_chain(full, [])
    assert plan.goal_met
    assert plan.steps == ()
    assert plan.final_set == full


def test_record_removal_alone_is_invalid_from_full(reports, full):
    plan = check_chain(full, [reports["recordRemoval"]])
    assert not plan.goal_met
    step = plan.steps[0]
    assert step.transformation == "recordRemoval"
    assert not step.valid
    assert step.input_set == full


def test_prefixed_chain_is_valid(reports, full):
    plan = check_chain(full, [reports["classInstantiation"], reports["recordRemoval"]])
    assert plan.goal_met
    assert [s.valid for s in plan.steps] == [True, True]
    assert plan.steps[0].output_set == full - {"Class"}
    assert plan.final_set == full - {"Class", "Record"}


def test_useless_step_warning_names_the_dropping_step(reports, full):
    plan = check_chain(
        full - {"Record"},
        [reports["classInstantiation"], reports["recordRemoval"]],
    )
    assert plan.goal_met
    assert plan.steps[0].warnings == (
        "useless step: 'Record' is introduced here and dropped "
        "by step 2 ('recordRemoval')",
    )
    assert plan.steps[1].warnings == ()


def test_useless_step_warning_names_only_the_first_dropping_step(reports, full):
    plan = check_chain(
        full - {"Record"},
        [reports["classInstantiation"], reports["recordRemoval"], reports["uselessIfRemoval"]],
    )
    assert "Record" in plan.steps[0].output_set
    assert "Record" not in plan.steps[1].output_set
    assert "Record" not in plan.steps[2].output_set
    assert plan.steps[0].warnings == (
        "useless step: 'Record' is introduced here and dropped "
        "by step 2 ('recordRemoval')",
    )


def test_surviving_introductions_do_not_warn(reports, full):
    plan = check_chain(full - {"Record"}, [reports["classInstantiation"]])
    assert plan.steps[0].warnings == ()


def test_incompatible_metamodels_raise(pivot, reports):
    other = parse_metamodel("metamodel Tiny { class DataType {} }")
    t = parse_transformation(
        wrap_rules(
            "rule DataType {\n"
            "\tfrom\n"
            "\t\ts : Tiny!DataType\n"
            "\tto\n"
            "\t\tt : Tiny!DataType()\n"
            "}",
            name="tinyStep",
            source_mm="Tiny",
        )
    )
    tiny_report = analyze(t, other, other)
    with pytest.raises(ChainCompatibilityError) as exc:
        check_chain(frozenset(), [reports["enumRemoval"], tiny_report])
    assert str(exc.value) == (
        "step 1 produces metamodel 'CPPivot' but step 2 ('tinyStep') "
        "reads 'Tiny'"
    )


def test_plan_zero_steps_when_goal_already_holds(reports, full):
    plan = plan_chain(
        list(reports.values()), full, frozenset({"Model"}), frozenset()
    )
    assert plan is not None
    assert plan.steps == ()
    assert plan.goal_met


def test_plan_single_step(reports, full):
    plan = plan_chain(list(reports.values()), full, frozenset(), frozenset({"Class"}))
    assert [s.transformation for s in plan.steps] == ["classInstantiation"]
    plan = plan_chain(
        list(reports.values()),
        full,
        frozenset(),
        frozenset({"EnumLiteral", "Enumeration"}),
    )
    assert [s.transformation for s in plan.steps] == ["enumRemoval"]
    # Every step copies Model, but only a forbidden concept of the initial set rules a plan out.
    plan = plan_chain(list(reports.values()), full - {"Model"}, frozenset(), frozenset({"Model", "Class"}))
    assert [s.transformation for s in plan.steps] == ["classInstantiation"]


def test_plan_two_steps_orders_prerequisite_first(reports, full):
    plan = plan_chain(
        list(reports.values()), full, frozenset(), frozenset({"Class", "Record"})
    )
    assert [s.transformation for s in plan.steps] == [
        "classInstantiation",
        "recordRemoval",
    ]
    assert plan.goal_met
    assert plan.final_set == full - {"Class", "Record"}


def test_plan_tie_break_does_not_depend_on_library_order(reports, full):
    # Both orders of the two steps are shortest plans; the names decide.
    library = list(reports.values())[::-1]
    plan = plan_chain(library, full, frozenset(), frozenset({"Class", "EnumLiteral"}))
    assert [s.transformation for s in plan.steps] == ["classInstantiation", "enumRemoval"]


def test_plan_requirements_constrain_the_goal(reports, full):
    plan = plan_chain(
        list(reports.values()),
        full,
        frozenset({"Variable", "IntVal"}),
        frozenset({"Class"}),
    )
    assert plan is not None
    assert {"Variable", "IntVal"} <= plan.final_set
    assert "Class" not in plan.final_set


def _kept_by_every_step(names, library):
    """The names that every step copies, or mutates into themselves, from inside its
    refined domain: once in a concept set, no chain of these steps removes them."""
    return [
        c for c in sorted(names)
        if all(
            c in r.refined_domain and r.profiles.get(c)
            and (r.profiles[c].copy_modes or c in r.profiles[c].produced_as)
            for r in library
        )
    ]


@pytest.fixture()
def queues(monkeypatch):
    """The number of search queues `plan_chain` makes, in a list."""
    made = [0]

    def counted(*args):
        made[0] += 1
        return deque(*args)

    monkeypatch.setattr(chain, "deque", counted)
    return made


def test_plan_unreachable_goal_returns_none(reports, full, queues):
    # The paper's corpus: all five transformations copy 15 of the 20 concrete concepts, and
    # recordRemoval mutates PropertyExpr into PropertyExpr and VariableExpr while the rest copy it.
    library = list(reports.values())
    kept = _kept_by_every_step(full, library)
    assert kept == sorted([
        "Predicate", "DataType", "Model", "Variable", "Constant", "Constraint", "If", "Forall",
        "IndexVariable", "Array", "SetDomain", "IntervalDomain", "VariableExpr", "BoolVal", "IntVal",
        "PropertyExpr",
    ])
    for c in kept:
        assert plan_chain(library, full, frozenset(), {c}) is None
        assert reference_plan(library, full, frozenset(), {c}) is None
    assert queues == [0]  # each answer is proved before the search


def test_plan_honors_max_len(reports, full):
    assert (
        plan_chain(
            list(reports.values()),
            full,
            frozenset(),
            frozenset({"Class", "Record"}),
            max_len=1,
        )
        is None
    )


def test_plan_skips_steps_that_read_another_metamodel():
    m = parse_metamodel("metamodel M { class A {} class B {} class C {} }")
    n = parse_metamodel("metamodel N { class A {} class B {} class C {} }")

    def step(name, source, target, rule):
        t = parse_transformation(wrap_rules(rule, name=name, source_mm=source.name, target_mm=target.name))
        return analyze(t, source, target)

    library = [
        step("m2n", m, n, "rule A { from s : M!A to t : N!B() }"),
        # Sorts before nB2C and would reach the goal, but reads M after m2n has produced N.
        step("mB2C", m, m, "rule B { from s : M!B to t : M!C() }"),
        step("nB2C", n, n, "rule B { from s : N!B to t : N!C() }"),
    ]
    plan = plan_chain(library, {"A"}, {"C"}, set())
    assert [s.transformation for s in plan.steps] == ["m2n", "nB2C"]
    assert plan.final_set == {"C"}


def test_plan_lengths_match_exhaustive_enumeration(reports, full):
    rng = random.Random(995511)
    library = list(reports.values())
    ordered = sorted(full)
    for _ in range(30):
        initial = frozenset(c for c in ordered if rng.random() < 0.85)
        required = frozenset(c for c in initial if rng.random() < 0.1)
        rest = [c for c in ordered if c not in required]
        forbidden = frozenset(c for c in rest if rng.random() < 0.1)
        plan = plan_chain(library, initial, required, forbidden, max_len=3)
        expected = enumerate_best_plan_length(
            library, initial, required, forbidden, max_len=3
        )
        got = None if plan is None else len(plan.steps)
        assert got == expected


def _random_library(rng):
    """Two to seven steps over metamodels M and N, which declare the same
    one to nine concept names, so that exogenous steps share names."""
    names = [f"C{i}" for i in range(rng.randint(1, 9))]
    decls = " ".join(f"class {c} {{}}" for c in names)
    mms = [parse_metamodel(f"metamodel {m} {{ {decls} }}") for m in rng.choice(["M", "MN"])]
    library = []
    for i in range(rng.randint(2, 7)):
        source, target = rng.choice(mms), rng.choice(mms)
        rules = []
        for r in range(rng.randint(0, 7)):
            head = "lazy rule" if rng.random() < 0.15 else "rule"
            src = rng.choice(names)
            # A guard mention puts a concept in the refined domain without processing it.
            guard = f" (s.f.oclIsTypeOf({source.name}!{rng.choice(names)}))" if rng.random() < 0.4 else ""
            # The first target is the source's own name about half the time: a copy.
            first = src if rng.random() < 0.5 else rng.choice(names)
            targets = [first] + rng.sample(names, rng.randint(0, min(2, len(names))))
            patterns = ", ".join(f"t{k} : {target.name}!{c}()" for k, c in enumerate(targets))
            rules.append(f"{head} r{r} {{ from s : {source.name}!{src}{guard} to {patterns} }}")
        if rng.random() < 0.5:  # a helper that puts every concept in the refined domain
            mentions = " or ".join(f"s.f.oclIsTypeOf({source.name}!{c})" for c in names)
            rules.insert(0, f"helper def : h : Boolean = {mentions};")
        text = wrap_rules("\n".join(rules), name=f"{rng.choice('ab')}{i}", source_mm=source.name, target_mm=target.name)
        library.append(analyze(parse_transformation(text), source, target))
    return names, library


def test_plan_matches_the_reference_search_on_random_libraries(queues):
    rng = random.Random(25250)
    found = {"none": 0, "held": 0, "long": 0, "warned": 0, "kept": 0}
    for _ in range(400):
        names, library = _random_library(rng)
        # Mostly inside some step's refined domain, so that a first step is valid.
        pool = sorted(rng.choice(library).refined_domain) if rng.random() < 0.8 else names
        initial = frozenset(c for c in pool if rng.random() < 0.7)
        required = frozenset(c for c in names if c not in initial and rng.random() < 0.3)
        if rng.random() < 0.15:
            required |= {"Ghost"}  # a name no report knows
        forbidden = frozenset(c for c in sorted(initial) if rng.random() < 0.4)
        if not required | forbidden:  # one constraint at least
            required = {rng.choice(names)} - initial
            forbidden = frozenset() if required else {rng.choice(sorted(initial))}
        always = _kept_by_every_step(initial, library)
        if always and rng.random() < 0.3:  # a forbidden concept that no step removes
            forbidden |= {rng.choice(always)}
        if rng.random() < 0.1:  # a goal that already holds
            required, forbidden = frozenset(), frozenset(c for c in names if c not in initial)
        max_len = rng.randint(0, 5)
        searched = queues[0]
        plan = plan_chain(library, initial, required, forbidden, max_len)
        assert plan == reference_plan(library, initial, required, forbidden, max_len)
        if forbidden.intersection(always):
            assert plan is None and queues[0] == searched  # proved before the search
            found["kept"] += 1
        found["none"] += plan is None
        found["held"] += plan is not None and not plan.steps
        found["long"] += plan is not None and len(plan.steps) >= 2
        found["warned"] += plan is not None and any(s.warnings for s in plan.steps)
    # Every outcome the search can have is drawn, and so is a forbidden concept no step removes.
    assert min(found.values()) >= 3, found
