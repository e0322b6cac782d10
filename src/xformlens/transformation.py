"""Transformation dialect (.tfm): parsing and validation.

A module header names the target and source metamodels, followed by
helpers and rules. Expressions (guards, binding values, helper bodies)
are captured as balanced token runs, not parsed into syntax trees; the
analysis only needs the qualified concept references inside them.
"""
from __future__ import annotations

from collections import namedtuple

from .lexer import ParseError, Token, TokenStream, capture_balanced


class ConceptRef(namedtuple("ConceptRef", "metamodel name line column")):
    """A qualified reference METAMODEL!CONCEPT (two str) at its 1-based
    source `line` and `column` (int)."""

    __slots__ = ()

    @property
    def qualified(self) -> str:
        return f"{self.metamodel}!{self.name}"


class Expression(namedtuple("Expression", "raw refs", defaults=((),))):
    """An opaque expression: `raw` source text (str) plus the concept refs
    extracted from it (tuple[ConceptRef, ...])."""

    __slots__ = ()


# feature: str; value: Expression
Binding = namedtuple("Binding", "feature value")

# var: str; concept: ConceptRef; bindings: tuple[Binding, ...]
TargetPattern = namedtuple("TargetPattern", "var concept bindings", defaults=((),))

# name, source_var: str; source_concept: ConceptRef; targets: tuple[TargetPattern, ...];
# guard: Expression | None; lazy: bool; parent_rule: str | None
Rule = namedtuple(
    "Rule", "name source_var source_concept targets guard lazy parent_rule", defaults=(None, False, None)
)

# name: str; result_type, body: Expression; context: ConceptRef | None
Helper = namedtuple("Helper", "name result_type body context", defaults=(None,))

# name, source_metamodel, target_metamodel: str; helpers: tuple[Helper, ...];
# rules: tuple[Rule, ...]; source_path: str | None
Transformation = namedtuple(
    "Transformation",
    "name source_metamodel target_metamodel helpers rules source_path",
    defaults=((), (), None),
)


def parse_transformation(
    source_text: str, *, path: str | None = None
) -> Transformation:
    """Parse and validate a transformation file.

    Raises ParseError on syntax errors, duplicate rule names, unknown
    parent rules, and source patterns that match against a metamodel
    other than the one the module reads from. Target patterns are not
    resolved here; unknown target concepts surface as analysis
    diagnostics instead.
    """
    ts = TokenStream(source_text, path)
    ts.expect("module")
    name = ts.expect_ident("module name").text
    ts.expect(";")

    ts.expect("create")
    ts.expect_ident("target model name")
    ts.expect(":")
    target_mm = ts.expect_ident("target metamodel name").text
    ts.expect("from")
    ts.expect_ident("source model name")
    ts.expect(":")
    source_mm = ts.expect_ident("source metamodel name").text
    ts.expect(";")

    helpers: list[Helper] = []
    while ts.at("helper"):
        helpers.append(_parse_helper(ts))

    rules: list[Rule] = []
    seen: dict[str, Token] = {}
    parent_refs: list[Token] = []
    while ts.at("rule") or ts.at("lazy"):
        rule, name_tok, parent_tok = _parse_rule(ts)
        if rule.name in seen:
            raise ts.error(f"duplicate rule name '{rule.name}'", name_tok)
        seen[rule.name] = name_tok
        if parent_tok is not None:
            parent_refs.append(parent_tok)
        if rule.source_concept.metamodel != source_mm:
            ref = rule.source_concept
            raise ParseError(
                f"source pattern of rule '{rule.name}' matches metamodel "
                f"'{ref.metamodel}' but the module reads from '{source_mm}'",
                ref.line,
                ref.column,
                path,
            )
        rules.append(rule)
    ts.expect_eof()

    for parent_tok in parent_refs:
        if parent_tok.text not in seen:
            raise ts.error(f"unknown parent rule '{parent_tok.text}'", parent_tok)

    return Transformation(
        name, source_mm, target_mm, tuple(helpers), tuple(rules), source_path=path
    )


def _parse_helper(ts: TokenStream) -> Helper:
    ts.expect("helper")
    context = None
    if ts.accept("context"):
        context = _parse_qref(ts)
    ts.expect("def")
    ts.expect(":")
    name = ts.expect_ident("helper name").text
    ts.expect(":")
    type_run = capture_balanced(ts, frozenset({"="}), "helper result type")
    result_type = _expression(ts, type_run)
    ts.expect("=")
    body_run = capture_balanced(ts, frozenset({";"}), "helper body")
    body = _expression(ts, body_run)
    ts.expect(";")
    return Helper(name, result_type, body, context)


def _parse_rule(ts: TokenStream) -> tuple[Rule, Token, Token | None]:
    lazy = ts.accept("lazy")
    ts.expect("rule")
    name_tok = ts.expect_ident("rule name")
    parent_tok = None
    if ts.accept("extends"):
        parent_tok = ts.expect_ident("parent rule name")
    ts.expect("{")

    ts.expect("from")
    source_var = ts.expect_ident("source variable name").text
    ts.expect(":")
    source_concept = _parse_qref(ts)
    guard = None
    if ts.accept("("):
        run = capture_balanced(ts, frozenset({")"}), "guard expression")
        guard = _expression(ts, run)
        ts.expect(")")

    ts.expect("to")
    targets = [_parse_target(ts)]
    while ts.accept(","):
        targets.append(_parse_target(ts))
    ts.expect("}")

    rule = Rule(
        name_tok.text,
        source_var,
        source_concept,
        tuple(targets),
        guard,
        lazy,
        parent_tok.text if parent_tok is not None else None,
    )
    return rule, name_tok, parent_tok


def _parse_target(ts: TokenStream) -> TargetPattern:
    var = ts.expect_ident("target variable name").text
    ts.expect(":")
    concept = _parse_qref(ts)
    ts.expect("(")
    bindings: list[Binding] = []
    if not ts.at(")"):
        while True:
            feature = ts.expect_ident("feature name").text
            ts.expect("<-")
            run = capture_balanced(ts, frozenset({",", ")"}), "binding expression")
            bindings.append(Binding(feature, _expression(ts, run)))
            if not ts.accept(","):
                break
    ts.expect(")")
    return TargetPattern(var, concept, tuple(bindings))


def _parse_qref(ts: TokenStream) -> ConceptRef:
    mm_tok = ts.expect_ident("metamodel name")
    ts.expect("!")
    name_tok = ts.expect_ident("concept name")
    return ConceptRef(mm_tok.text, name_tok.text, *ts.position(mm_tok))


def _expression(ts: TokenStream, run: list[Token]) -> Expression:
    raw = ts.slice(run[0], run[-1])
    refs = []
    if "!" in raw:  # without a `!` the run names no concept: skip the walk
        for i in range(1, len(run) - 1):
            if run[i].text == "!":
                a, c = run[i - 1], run[i + 1]
                if a.kind == "ident" and c.kind == "ident":
                    refs.append(ConceptRef(a.text, c.text, *ts.position(a)))
    return Expression(raw, tuple(refs))

