"""Transformation dialect (.tfm): parsing and validation.

A module header names the target and source metamodels, followed by
helpers and rules. Expressions (guards, binding values, helper bodies)
are captured as balanced token runs, not parsed into syntax trees; the
analysis only needs the qualified concept references inside them.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import partial

from .lexer import ParseError, TokenStream, capture_balanced, is_ident


class ConceptRef(namedtuple("ConceptRef", "metamodel name line column")):
    """A qualified reference METAMODEL!CONCEPT (two str) at its 1-based
    source `line` and `column` (int)."""

    __slots__ = ()

    @property
    def qualified(self) -> str:
        return f"{self.metamodel}!{self.name}"


# An opaque expression: raw: str, its source text; refs: tuple[ConceptRef, ...], the refs in it
Expression = namedtuple("Expression", "raw refs", defaults=((),))


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

_new = tuple.__new__  # the parser gives every field, so it skips the namedtuple's Python-level __new__


# The command line keeps a parsed input as nested plain tuples, which marshal writes; this walk alone
# states their layout. It builds each record by tuple.__new__ as the type given for its kind: `tuple`
# for every kind writes the plain form, since tuple.__new__(tuple, x) is a plain tuple of x's items,
# and the record types, in the order `transformation_from_plain` gives them, rebuild the Transformation.
def _walk(t, transformation, helper, rule, target, binding, expression, ref):
    ref = partial(_new, ref)

    def expr(e):
        return None if e is None else _new(expression, (e[0], tuple(map(ref, e[1]))))

    name, source_mm, target_mm, helpers, rules, source_path = t
    helpers = tuple([
        _new(helper, (hname, expr(result_type), expr(body), None if context is None else ref(context)))
        for hname, result_type, body, context in helpers
    ])
    rules = tuple([
        _new(rule, (rname, source_var, ref(source_concept), tuple([
            _new(target, (var, ref(concept), tuple([
                _new(binding, (feature, expr(value))) for feature, value in bindings
            ])))
            for var, concept, bindings in targets
        ]), expr(guard), lazy, parent_rule))
        for rname, source_var, source_concept, targets, guard, lazy, parent_rule in rules
    ])
    return _new(transformation, (name, source_mm, target_mm, helpers, rules, source_path))


def transformation_to_plain(t: Transformation) -> tuple:
    """`t` with every record in it written as a plain tuple."""
    return _walk(t, *[tuple] * 7)


def transformation_from_plain(plain: tuple) -> Transformation:
    """The Transformation whose `transformation_to_plain` is `plain`."""
    return _walk(plain, Transformation, Helper, Rule, TargetPattern, Binding, Expression, ConceptRef)


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
    texts = ts.texts
    ts.expect("module")
    name = texts[ts.expect_ident("module name")]
    ts.expect(";")

    ts.expect("create")
    ts.expect_ident("target model name")
    ts.expect(":")
    target_mm = texts[ts.expect_ident("target metamodel name")]
    ts.expect("from")
    ts.expect_ident("source model name")
    ts.expect(":")
    source_mm = texts[ts.expect_ident("source metamodel name")]
    ts.expect(";")

    helpers: list[Helper] = []
    while ts.accept("helper"):
        helpers.append(_parse_helper(ts))

    rules: list[Rule] = []
    seen: set[str] = set()
    parent_refs: list[int] = []  # the index of each `extends` target
    while ts.texts[ts.pos] in ("rule", "lazy"):
        rule, name_at, parent_at = _parse_rule(ts)
        if rule.name in seen:
            raise ts.error(f"duplicate rule name '{rule.name}'", name_at)
        seen.add(rule.name)
        if parent_at is not None:
            parent_refs.append(parent_at)
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

    for parent_at in parent_refs:
        if texts[parent_at] not in seen:
            raise ts.error(f"unknown parent rule '{texts[parent_at]}'", parent_at)

    return Transformation(
        name, source_mm, target_mm, tuple(helpers), tuple(rules), source_path=path
    )


def _parse_helper(ts: TokenStream) -> Helper:
    context = None
    if ts.accept("context"):
        context = _parse_qref(ts)
    ts.expect("def")
    ts.expect(":")
    name = ts.texts[ts.expect_ident("helper name")]
    ts.expect(":")
    result_type = _expression(ts, *capture_balanced(ts, ("=",), "helper result type"))
    ts.expect("=")
    body = _expression(ts, *capture_balanced(ts, (";",), "helper body"))
    ts.expect(";")
    return _new(Helper, (name, result_type, body, context))


def _parse_rule(ts: TokenStream) -> tuple[Rule, int, int | None]:
    lazy = ts.accept("lazy")
    ts.expect("rule")
    name_at = ts.expect_ident("rule name")
    parent_at = None
    if ts.accept("extends"):
        parent_at = ts.expect_ident("parent rule name")
    ts.expect("{")

    ts.expect("from")
    source_var = ts.texts[ts.expect_ident("source variable name")]
    ts.expect(":")
    source_concept = _parse_qref(ts)
    guard = None
    if ts.accept("("):
        guard = _expression(ts, *capture_balanced(ts, (")",), "guard expression"))
        ts.expect(")")

    ts.expect("to")
    targets = [_parse_target(ts)]
    while ts.accept(","):
        targets.append(_parse_target(ts))
    ts.expect("}")

    rule = _new(Rule, (
        ts.texts[name_at],
        source_var,
        source_concept,
        tuple(targets),
        guard,
        lazy,
        ts.texts[parent_at] if parent_at is not None else None,
    ))
    return rule, name_at, parent_at


def _parse_target(ts: TokenStream) -> TargetPattern:
    var = ts.texts[ts.expect_ident("target variable name")]
    ts.expect(":")
    concept = _parse_qref(ts)
    ts.expect("(")
    bindings: list[Binding] = []
    if ts.texts[ts.pos] != ")":
        while True:
            feature = ts.texts[ts.expect_ident("feature name")]
            ts.expect("<-")
            bindings.append(_new(Binding, (feature, _expression(ts, *capture_balanced(ts, (",", ")"), "binding expression")))))
            if not ts.accept(","):
                break
    ts.expect(")")
    return _new(TargetPattern, (var, concept, tuple(bindings)))


def _parse_qref(ts: TokenStream) -> ConceptRef:
    mm_at = ts.expect_ident("metamodel name")
    ts.expect("!")
    ts.expect_ident("concept name")
    return _concept_ref(ts, mm_at)


def _concept_ref(ts: TokenStream, mm_at: int) -> ConceptRef:
    """The ref spelled by tokens `mm_at` to `mm_at + 2`, at the line and column of its metamodel name."""
    offset = ts.texts.starts[mm_at]
    lines = ts.line_starts
    line = bisect_right(lines, offset)
    return _new(ConceptRef, (ts.texts[mm_at], ts.texts[mm_at + 2], line, offset - lines[line - 1] + 1))


def _expression(ts: TokenStream, start: int, stop: int) -> Expression:
    """The run of tokens `start` to `stop - 1` and the `A!B` refs in it."""
    raw = ts.slice(start, stop)
    texts, starts = ts.texts, ts.texts.starts
    first = starts[start]
    refs = []
    # A ref's `!` starts a token, neither the run's first nor its last, with an identifier on each side.
    at = raw.find("!", 1, len(raw) - 1)
    while at >= 0:
        i = bisect_left(starts, first + at, start, stop)
        if starts[i] == first + at and is_ident(texts[i - 1]) and is_ident(texts[i + 1]):
            refs.append(_concept_ref(ts, i - 1))
        at = raw.find("!", at + 1, len(raw) - 1)
    return _new(Expression, (raw, tuple(refs)))
