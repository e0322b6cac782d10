"""Transformation parsing: header, helpers, rules, and expressions."""
from __future__ import annotations

import pytest

from xformlens import ParseError, parse_transformation

from helpers import (
    CORPUS,
    LAZY_PARENT_STUB,
    RULE_COPY_ALWAYS,
    RULE_COPY_GUARDED,
    RULE_COPY_LAZY,
    RULE_MUTATION_GUARDED,
    named,
    reference_position,
    reference_tokenize,
    wrap_rules,
)


def test_header_is_parsed():
    t = parse_transformation(wrap_rules(RULE_COPY_ALWAYS), path="probe.tfm")
    assert t.name == "probe"
    assert t.source_metamodel == "CPPivot"
    assert t.target_metamodel == "CPPivot"
    assert t.source_path == "probe.tfm"
    # source_path is an ordinary field: the same text read from two paths
    # gives two unequal records that differ only there.
    a = parse_transformation(wrap_rules(RULE_COPY_ALWAYS), path="a.tfm")
    b = parse_transformation(wrap_rules(RULE_COPY_ALWAYS), path="b.tfm")
    assert a != b and not a == b
    assert a._replace(source_path="b.tfm") == b


def test_plain_copy_rule_shape():
    t = parse_transformation(wrap_rules(RULE_COPY_ALWAYS))
    rule = named(t.rules, "DataType")
    assert rule.source_var == "s"
    assert rule.source_concept.qualified == "CPPivot!DataType"
    assert rule.guard is None
    assert not rule.lazy
    assert rule.parent_rule is None
    assert len(rule.targets) == 1
    target = rule.targets[0]
    assert target.var == "t"
    assert target.concept.qualified == "CPPivot!DataType"
    assert [b.feature for b in target.bindings] == ["name"]
    assert target.bindings[0].value.raw == "s.name"


def test_guarded_rule_captures_guard_text_and_refs():
    t = parse_transformation(wrap_rules(RULE_COPY_GUARDED))
    rule = named(t.rules, "SetDomain")
    assert rule.guard is not None
    assert rule.guard.raw == "not s.parent.oclIsTypeOf(CPPivot!IndexVariable)"
    assert {r.qualified for r in rule.guard.refs} == {"CPPivot!IndexVariable"}


def test_lazy_rule_with_parent():
    t = parse_transformation(wrap_rules(LAZY_PARENT_STUB + "\n\n" + RULE_COPY_LAZY))
    rule = named(t.rules, "lazyBoolVal")
    assert rule.lazy
    assert rule.parent_rule == "lazyExpression"
    assert named(t.rules, "lazyExpression").targets[0].bindings == ()


def test_multi_target_rule_orders_targets():
    body = (
        "rule Split {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!Variable\n"
        "\tto\n"
        "\t\td : CPPivot!IntervalDomain(\n"
        "\t\t\tlowerBound <- 1\n"
        "\t\t),\n"
        "\t\tt : CPPivot!Variable(\n"
        "\t\t\tname <- s.name,\n"
        "\t\t\tdomain <- d\n"
        "\t\t)\n"
        "}"
    )
    t = parse_transformation(wrap_rules(body))
    rule = named(t.rules, "Split")
    assert [tp.concept.name for tp in rule.targets] == ["IntervalDomain", "Variable"]
    assert [b.feature for b in rule.targets[1].bindings] == ["name", "domain"]


def test_helper_fields_are_parsed():
    text = wrap_rules(
        "helper context CPPivot!Variable def : hasClassType : Boolean =\n"
        "\tself.type.oclIsTypeOf(CPPivot!Class);\n\n" + RULE_COPY_ALWAYS
    )
    t = parse_transformation(text)
    assert len(t.helpers) == 1
    h = t.helpers[0]
    assert h.name == "hasClassType"
    assert h.context is not None
    assert h.context.qualified == "CPPivot!Variable"
    assert h.result_type.raw == "Boolean"
    assert h.body.raw == "self.type.oclIsTypeOf(CPPivot!Class)"
    assert {r.qualified for r in h.body.refs} == {"CPPivot!Class"}


def test_context_free_helper():
    text = wrap_rules("helper def : limit : Integer = 42;\n\n" + RULE_COPY_ALWAYS)
    h = parse_transformation(text).helpers[0]
    assert h.context is None
    assert h.result_type.raw == "Integer"
    assert h.body.raw == "42"


def test_duplicate_rule_name_is_rejected():
    text = wrap_rules(RULE_COPY_ALWAYS + "\n\n" + RULE_COPY_ALWAYS)
    with pytest.raises(ParseError) as exc:
        parse_transformation(text)
    assert "duplicate rule name 'DataType'" in str(exc.value)


def test_unknown_parent_rule_is_rejected():
    with pytest.raises(ParseError) as exc:
        parse_transformation(wrap_rules(RULE_COPY_LAZY))
    assert "unknown parent rule 'lazyExpression'" in str(exc.value)


def test_source_pattern_must_match_header_metamodel():
    body = (
        "rule Wrong {\n"
        "\tfrom\n"
        "\t\ts : Other!DataType\n"
        "\tto\n"
        "\t\tt : CPPivot!DataType()\n"
        "}"
    )
    with pytest.raises(ParseError) as exc:
        parse_transformation(wrap_rules(body), path="wrong.tfm")
    message = str(exc.value)
    assert message.startswith("wrong.tfm:")
    assert (
        "source pattern of rule 'Wrong' matches metamodel 'Other' "
        "but the module reads from 'CPPivot'" in message
    )


def test_target_qualifiers_are_not_parse_checked():
    body = (
        "rule Loose {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!DataType\n"
        "\tto\n"
        "\t\tt : Elsewhere!Thing()\n"
        "}"
    )
    t = parse_transformation(wrap_rules(body))
    assert named(t.rules, "Loose").targets[0].concept.qualified == "Elsewhere!Thing"


def test_expression_refs_require_qualifier_shape():
    body = (
        "rule Probe {\n"
        "\tfrom\n"
        "\t\ts : CPPivot!Variable (\n"
        "\t\t\ts.x = CPPivot!Class and plain.name and Other!Ghost\n"
        "\t\t)\n"
        "\tto\n"
        "\t\tt : CPPivot!Variable()\n"
        "}"
    )
    guard = named(parse_transformation(wrap_rules(body)).rules, "Probe").guard
    assert {r.qualified for r in guard.refs} == {"CPPivot!Class", "Other!Ghost"}


@pytest.mark.parametrize(
    "guard, refs",
    [
        ("1!A", set()),
        ("A!'s'", set()),
        ("(s.x)!A", set()),
        ("A!1", set()),
        ("x!\u00b2y", {"x!\u00b2y"}),
        ("'M!C'", set()),
        ("s.x -- M!C\n", set()),
        ("'a' ! B", set()),
        ("A -- !\nB C", set()),
        ("A ! B", {"A!B"}),
        ("A -- c\n! B", {"A!B"}),
        ("A!\n\tB", {"A!B"}),
        ("A!B!C", {"A!B", "B!C"}),
    ],
    ids=[
        "integer-left", "string-right", "bracket-left", "integer-right", "superscript-right",
        "inside-string", "inside-comment", "string-left", "commented-bang", "blanks-around",
        "comment-between", "line-end-between", "shared-name",
    ],
)
def test_expression_refs_need_an_identifier_on_both_sides(guard, refs):
    # `\u00b2` (superscript two) is numeric but not decimal, so it starts an identifier.
    # A `!` inside a string or comment is no token: in "commented-bang" the
    # identifiers on either side of the comment's `!` are `A` and `C`.
    body = f"rule Probe {{ from s : CPPivot!Variable ({guard}) to t : CPPivot!Variable() }}"
    rule = named(parse_transformation(wrap_rules(body)).rules, "Probe")
    assert {r.qualified for r in rule.guard.refs} == refs


def test_corpus_transformation_shapes(transformations):
    by_name = {t.name: t for t in transformations}
    ci = by_name["classInstantiation"]
    assert len(ci.helpers) == 1
    assert len(ci.rules) == 20
    fr = by_name["forallRemoval"]
    assert sum(1 for r in fr.rules if r.lazy) == 8
    assert {r.parent_rule for r in fr.rules if r.parent_rule} == {"lazyExpression"}


def _all_refs(t):
    """Every ConceptRef of a transformation: each helper's context, type and body, then
    each rule's source pattern, guard, target patterns and bindings."""
    for h in t.helpers:
        if h.context is not None:
            yield h.context
        yield from h.result_type.refs
        yield from h.body.refs
    for r in t.rules:
        yield r.source_concept
        if r.guard is not None:
            yield from r.guard.refs
        for tp in r.targets:
            yield tp.concept
            for b in tp.bindings:
                yield from b.value.refs


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
@pytest.mark.parametrize("head", [[], ["-- \u00e9"]], ids=["ascii", "non-ascii"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_every_ref_is_placed_at_its_metamodel_name_under_every_line_end(end, head, bom):
    # A leading non-ASCII comment moves the lexer out of ASCII mode, and a byte
    # order mark is dropped before lexing, so positions count from after it.
    placed = 0
    for path in sorted(CORPUS.glob("*.tfm")):
        source = bom + end.join([*head, *path.read_text(encoding="utf-8").splitlines()])
        text = source.removeprefix("\ufeff")
        tokens = reference_tokenize(text)
        at = {
            reference_position(text, offset): k
            for k, ((_, _, offset), (_, after, _)) in enumerate(zip(tokens, tokens[1:]))
            if after == "!"
        }
        for ref in _all_refs(parse_transformation(source)):
            k = at[ref.line, ref.column]
            assert [t for _, t, _ in tokens[k : k + 3]] == [ref.metamodel, "!", ref.name], (path.name, ref)
            placed += 1
    assert placed > 0
