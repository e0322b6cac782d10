"""Metamodel parsing, validation, and pretty-printing."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from xformlens import (
    ParseError,
    concrete_concepts,
    parse_metamodel,
    pretty_print,
)

from helpers import named

PIVOT_CONCRETE = (
    "EnumLiteral",
    "Predicate",
    "Enumeration",
    "DataType",
    "Model",
    "Class",
    "Record",
    "Variable",
    "Constant",
    "Constraint",
    "If",
    "Forall",
    "IndexVariable",
    "Array",
    "SetDomain",
    "IntervalDomain",
    "VariableExpr",
    "PropertyExpr",
    "BoolVal",
    "IntVal",
)


def test_pivot_parses_with_expected_concrete_concepts(pivot):
    assert pivot.name == "CPPivot"
    assert concrete_concepts(pivot) == PIVOT_CONCRETE


def test_pivot_abstract_concepts_are_flagged(pivot):
    statement = named(pivot.concepts, "Statement")
    assert statement.abstract
    assert named(pivot.concepts, "Expression").supertypes == ("Statement",)
    assert not named(pivot.concepts, "Variable").abstract


def test_pivot_features_are_captured(pivot):
    variable = named(pivot.concepts, "Variable")
    by_name = {f.name: f for f in variable.features}
    assert by_name["name"].kind == "attr"
    assert by_name["name"].type_name == "String"
    assert by_name["type"].kind == "ref"
    assert by_name["type"].type_name == "DataType"
    assert by_name["type"].multiplicity == "0..1"
    assert by_name["name"].multiplicity is None


def test_forward_supertype_references_resolve(pivot):
    assert named(pivot.concepts, "EnumLiteral").supertypes == ("Variable",)


def test_duplicate_concept_name_is_rejected():
    text = "metamodel M { class A {} class A {} }"
    with pytest.raises(ParseError) as exc:
        parse_metamodel(text, path="dup.cmm")
    assert "duplicate concept name 'A'" in str(exc.value)
    assert str(exc.value).startswith("dup.cmm:1:")
    assert exc.value.column == text.index("class A {} }") + len("class ") + 1


def test_unknown_supertype_is_rejected():
    with pytest.raises(ParseError) as exc:
        parse_metamodel("metamodel M { class A extends Ghost {} }")
    assert "unknown supertype 'Ghost' of concept 'A'" in str(exc.value)


def test_inheritance_cycle_is_rejected():
    text = "metamodel M { class A extends B {} class B extends A {} }"
    with pytest.raises(ParseError) as exc:
        parse_metamodel(text)
    assert "inheritance cycle: " in str(exc.value)
    message = str(exc.value)
    assert "A -> B -> A" in message or "B -> A -> B" in message


@pytest.mark.parametrize(
    "classes, position, cycle",
    [
        ("class A extends B {} class B extends C {} class C extends A {}", "1:21", "A -> B -> C -> A"),
        ("class A extends A {}", "1:21", "A -> A"),
        ("class D extends A {} class A extends B {} class B extends A {}", "1:42", "A -> B -> A"),
        ("class P extends Q {} class Q extends P {} class X extends Y {} class Y extends X {}", "1:21", "P -> Q -> P"),
        ("class A extends R, B {} class R {} class B extends A {}", "1:21", "A -> B -> A"),
    ],
)
def test_inheritance_cycle_messages(classes, position, cycle):
    # The walk starts at the first declared concept and follows supertypes
    # in declared order; the error points at the cycle's first concept.
    with pytest.raises(ParseError) as exc:
        parse_metamodel(f"metamodel M {{ {classes} }}", path="m.cmm")
    assert str(exc.value) == f"m.cmm:{position}: inheritance cycle: {cycle}"


def _acyclic(supertypes: dict[str, tuple[str, ...]]) -> bool:
    """Kahn's algorithm: repeatedly remove concepts that no remaining concept extends."""
    subtypes = {name: 0 for name in supertypes}
    for parents in supertypes.values():
        for parent in parents:
            subtypes[parent] += 1
    ready = [name for name, n in subtypes.items() if n == 0]
    removed = 0
    while ready:
        removed += 1
        for parent in supertypes[ready.pop()]:
            subtypes[parent] -= 1
            if subtypes[parent] == 0:
                ready.append(parent)
    return removed == len(supertypes)


extends_graphs = st.integers(1, 9).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n)
)


@given(extends_graphs)
@settings(deadline=None)
def test_a_metamodel_parses_exactly_when_its_extends_relation_is_acyclic(graph):
    supertypes = {f"C{i}": tuple(f"C{j}" for j in parents) for i, parents in enumerate(graph)}
    text = "metamodel M { " + " ".join(
        f"class {name} extends {', '.join(parents)} {{}}" if parents else f"class {name} {{}}"
        for name, parents in supertypes.items()
    ) + " }"
    try:
        mm = parse_metamodel(text)
    except ParseError as exc:
        assert exc.message.startswith("inheritance cycle: ")
        cycle = exc.message.removeprefix("inheritance cycle: ").split(" -> ")
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert all(parent in supertypes[child] for child, parent in zip(cycle, cycle[1:]))
        assert (exc.line, exc.column) == (1, text.index(f"class {cycle[0]} ") + len("class ") + 1)
    else:
        assert _acyclic(supertypes)
        assert {c.name: c.supertypes for c in mm.concepts} == supertypes


def test_deep_child_first_extends_chain_parses():
    depth = 3000
    classes = " ".join(f"class C{i} extends C{i + 1} {{}}" for i in range(depth - 1))
    mm = parse_metamodel(f"metamodel M {{ {classes} class C{depth - 1} {{}} }}")
    assert len(mm.concepts) == depth
    assert named(mm.concepts, "C0").supertypes == ("C1",)


def test_a_metamodel_records_no_path():
    text = "metamodel M { class A {} }"
    a, b = parse_metamodel(text, path="a.cmm"), parse_metamodel(text, path="b.cmm")
    assert a == b and hash(a) == hash(b)
    assert sorted([a, parse_metamodel(text)]) == [a, a]


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_metamodel("metamodel M {\n  class 7 {}\n}", path="bad.cmm")
    err = exc.value
    assert err.path == "bad.cmm"
    assert err.line == 2
    assert str(err) == f"bad.cmm:{err.line}:{err.column}: {err.message}"


def test_comments_are_ignored():
    mm = parse_metamodel("-- leading note\nmetamodel M { -- inline\n class A {} }")
    assert concrete_concepts(mm) == ("A",)


def test_pretty_print_round_trips_the_pivot(pivot):
    printed = pretty_print(pivot)
    reparsed = parse_metamodel(printed)
    assert reparsed == pivot
    assert hash(reparsed) == hash(pivot)  # the pivot's file path is not recorded
    assert pretty_print(reparsed) == printed


def test_pretty_print_formats_empty_and_featured_concepts():
    mm = parse_metamodel(
        "metamodel M { abstract class A {} class B extends A "
        "{ attr x : Int; ref y : B [0..*]; } }"
    )
    printed = pretty_print(mm)
    assert "  abstract class A {}\n" in printed
    assert "  class B extends A {\n" in printed
    assert "    attr x : Int;\n" in printed
    assert "    ref y : B [0..*];\n" in printed
    assert printed.endswith("}\n")
