"""Transformation dialect (.tfm): records and their plain form; `parse` holds the parser.

A module header names the target and source metamodels, followed by
helpers and rules. Expressions (guards, binding values, helper bodies)
are captured as balanced token runs, not parsed into syntax trees; the
analysis only needs the qualified concept references inside them.
"""
from __future__ import annotations

from collections import namedtuple


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

def transformation_to_plain(t: Transformation) -> tuple:
    """`t` as the nested plain tuples, which marshal writes, that the command line keeps of a parsed input.
    Each record becomes the tuple of its values in field order; the analysis reads either form by position."""
    def ref(r):
        metamodel, name, line, column = r
        return (metamodel, name, line, column)

    def expr(e):
        if e is None:
            return None
        raw, refs = e
        return (raw, tuple(map(ref, refs)))

    name, source_metamodel, target_metamodel, helpers, rules, source_path = t
    helpers = tuple([
        (helper_name, expr(result_type), expr(body), None if context is None else ref(context))
        for helper_name, result_type, body, context in helpers
    ])
    rules = tuple([
        (rule_name, source_var, ref(source_concept), tuple([
            (var, ref(concept), tuple([(feature, expr(value)) for feature, value in bindings]))
            for var, concept, bindings in targets
        ]), expr(guard), lazy, parent_rule)
        for rule_name, source_var, source_concept, targets, guard, lazy, parent_rule in rules
    ])
    return (name, source_metamodel, target_metamodel, helpers, rules, source_path)


def parse_transformation(source_text: str, *, path: str | None = None) -> Transformation:
    """Parse and validate a transformation file.

    Raises ParseError on syntax errors, duplicate rule names, unknown
    parent rules, and source patterns that match against a metamodel
    other than the one the module reads from. Target patterns are not
    resolved here; unknown target concepts surface as analysis
    diagnostics instead.
    """
    from . import parse  # here, so that a command whose inputs all come from its cache loads no parser
    return parse.transformation(source_text, path)
