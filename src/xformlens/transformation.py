"""Transformation dialect (.tfm): records and their plain form; `parse` holds the parser.

A module header names the target and source metamodels, followed by
helpers and rules. Expressions (guards, binding values, helper bodies)
are captured as balanced token runs, not parsed into syntax trees; the
analysis only needs the qualified concept references inside them.
"""
from __future__ import annotations

from collections import namedtuple
from functools import partial


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

_new = tuple.__new__  # the walk gives every field, so it skips the namedtuple's Python-level __new__


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
