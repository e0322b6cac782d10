"""Static analysis of transformations against their metamodels.

Each rule is classified as a copy or a mutation with an application mode
(always, conditionally, lazily). Aggregating classifications per source
concept yields concept profiles, the ignored-in/ignored-out sets, the
refined domain and codomain, a fixed-point verdict, and diagnostics.

The inputs, a Transformation and its Metamodels, are read by position,
never by field name, so the plain tuple of a record's values, which the
command line's cache keeps (`metamodel_to_plain`, `transformation_to_plain`),
is read as the record is. Each unpack names the record's fields in order, a
prefix and `_` allowed (`rule_name` for `name`), and a test holds it to `_fields`.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum

from .metamodel import Metamodel, concrete_concepts, declaration_order, one_line


class MetamodelMismatchError(ValueError):
    """Transformation header names a metamodel other than the one supplied."""


class Mode(Enum):
    ALWAYS = "always"
    CONDITIONALLY = "conditionally"
    LAZILY = "lazily"


# action: "copy" | "mutation"; mode: Mode; targets: tuple[str, ...]
RuleClassification = namedtuple("RuleClassification", "action mode targets")

# copy_modes, mutation_modes: frozenset[Mode]; produced_as: frozenset[str]
ConceptProfile = namedtuple(
    "ConceptProfile", "copy_modes mutation_modes produced_as", defaults=(frozenset(),) * 3
)

# kind: "unknown_concept" | "never_processed" | "ignored_in" | "ignored_out";
# subject, message: str; file: str | None; line, column: int | None
Lint = namedtuple("Lint", "kind subject message file line column", defaults=(None, None, None))


def lint_lines(
    diagnostics: Sequence[Lint], fallback: str | None = None, kinds: Mapping[str, str] | None = None
) -> list[str]:
    """Format each diagnostic as `file:line:column: kind: message`.

    An unpositioned diagnostic is prefixed by `fallback` instead, or by
    nothing. A kind that `kinds` maps is shown as the text it maps to.
    """
    bare = "" if fallback is None else f"{fallback}: "
    shown = (kinds or {}).get
    return [  # messages name identifiers: no line breaks
        f"{bare if file is None or line is None else f'{one_line(file)}:{line}:{column}: '}"
        f"{shown(kind, kind)}: {message}"
        for kind, _, message, file, line, column in diagnostics
    ]


class FixedPointVerdict(namedtuple("FixedPointVerdict", "flag explanation focal", defaults=((),))):
    """`flag` (bool, also the truth value), its `explanation` (str) and the
    focal concepts (tuple[str, ...])."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.flag


class AnalysisReport(
    namedtuple(
        "AnalysisReport",
        "transformation source_mm target_mm profiles target_concepts"
        " ignored_in ignored_out refined_domain refined_codomain diagnostics",
        defaults=((),),
    )
):
    """One transformation's analysis. `transformation`, `source_mm` and
    `target_mm` are names (str); `profiles` is a dict[str, ConceptProfile]
    keyed by the concrete source concepts in declaration order;
    `target_concepts` is a tuple[str, ...]; the ignored and refined sets
    are frozenset[str]; `diagnostics` is a tuple[Lint, ...]."""

    __slots__ = ()

    @property
    def source_concepts(self) -> tuple[str, ...]:
        return tuple(self.profiles)

    @property
    def fixed_point_candidate(self) -> bool:
        """True when the report is endogenous and detect_fixed_point holds."""
        return self.source_mm == self.target_mm and bool(detect_fixed_point(self))


def classify_rule(rule) -> RuleClassification:
    """Classify one rule (a Rule, or its plain tuple) lexically, without resolving concepts.

    A rule is a copy when its first target pattern names the same concept
    as its source pattern, a mutation otherwise. The lazy keyword takes
    precedence over a guard when determining the mode.
    """
    _, _, (_, source_name, _, _), targets, guard, lazy, _ = rule
    produced = tuple(dict.fromkeys([name for _, (_, name, _, _), _ in targets]))
    action = "copy" if produced[0] == source_name else "mutation"
    if lazy:
        mode = Mode.LAZILY
    elif guard is not None:
        mode = Mode.CONDITIONALLY
    else:
        mode = Mode.ALWAYS
    return RuleClassification(action, mode, produced)


def _facts(mm: Metamodel) -> tuple[tuple[str, ...], frozenset[str], frozenset[str]]:
    """`mm`'s concrete concept names in declaration order, their set, and the names of all its concepts."""
    _, concepts = mm
    concrete = concrete_concepts(mm)
    return concrete, frozenset(concrete), frozenset([name for name, _, _, _ in concepts])


def _shared(source_mm: Metamodel, target_mm: Metamodel) -> tuple:
    """What the transformations of a library over `source_mm` and `target_mm` have in common:
    each side's `_facts`, derived once for an endogenous pair, and one dict of findings per kind."""
    source_facts = _facts(source_mm)
    return source_facts, source_facts if target_mm is source_mm else _facts(target_mm), ({}, {}, {})


def analyze_library(transformations: Iterable, source_mm: Metamodel, target_mm: Metamodel) -> list[AnalysisReport]:
    """`analyze` each transformation, taken lazily, with one `_shared` for all: the
    reports share their `target_concepts` tuple and each finding they have in common."""
    shared = _shared(source_mm, target_mm)
    return [analyze(t, source_mm, target_mm, shared) for t in transformations]


def analyze(t, source_mm: Metamodel, target_mm: Metamodel, shared: tuple | None = None) -> AnalysisReport:
    """Compute the full analysis report for one transformation.

    Unresolvable concept references never abort the analysis: each one
    becomes an unknown_concept diagnostic, and a rule whose source or
    target pattern fails to resolve is left out of the profiles.
    `shared` is `_shared(source_mm, target_mm)`, built afresh when None.
    """
    transformation_name, source_metamodel, target_metamodel, helpers, rules, source_path = t
    (source_name, _), (target_name, _) = source_mm, target_mm
    for verb, named, supplied in ("reads from", source_metamodel, source_name), ("writes to", target_metamodel, target_name):
        if named != supplied:
            where = f"{source_path}: " if source_path else ""  # as a ParseError names its file
            raise MetamodelMismatchError(
                f"{where}transformation '{transformation_name}' {verb} '{named}' but metamodel '{supplied}' was supplied"
            )

    (
        (source_concepts, source_concrete, source_names),
        (target_concepts, target_concrete, target_names),
        (never, unread, unwritten),
    ) = shared or _shared(source_mm, target_mm)

    unknown: list[Lint] = []
    mentioned_source: set[str] = set()
    mentioned_target: set[str] = set()
    concept_names = {source_name: source_names, target_name: target_names}
    # A scope maps each qualifier that may resolve to the set its mentions
    # are recorded in. The source entry comes last so that it wins in an
    # endogenous module; in an exogenous one, expression refs to the
    # target metamodel resolve but count toward neither ignored set.
    read = {target_name: set(), source_name: mentioned_source}
    typed = {target_name: set(), source_name: set()}
    written = {target_name: mentioned_target}

    def resolve(ref, owner: str, scope: dict[str, set[str]]) -> bool:
        """Record a mention of ref, a ConceptRef, in its scope, or lint it as unknown."""
        metamodel, name, line, column = ref
        if metamodel in scope and name in concept_names[metamodel]:
            scope[metamodel].add(name)
            return True
        qualified = f"{metamodel}!{name}"
        message = f"{owner} references unknown concept '{qualified}'"
        unknown.append(Lint("unknown_concept", qualified, message, source_path, line, column))
        return False

    # An Expression is (raw, refs), so its refs are expression[1].
    for helper_name, result_type, body, context in helpers:
        owner = f"helper '{helper_name}'"
        # Context and result type are checked for typos only; a concept
        # mentioned nowhere else stays ignored-in.
        if context is not None:
            resolve(context, owner, typed)
        for ref in result_type[1]:
            resolve(ref, owner, typed)
        for ref in body[1]:
            resolve(ref, owner, read)

    # An entry exists only for a concept some rule folds into, so it holds a mode.
    folded: dict[str, tuple[set[Mode], set[Mode], set[str]]] = {}
    for rule in rules:
        rule_name, _, source_concept, targets, guard, _, _ = rule
        owner = f"rule '{rule_name}'"
        patterns_ok = resolve(source_concept, owner, read)
        if guard is not None:
            for ref in guard[1]:
                resolve(ref, owner, read)
        for _, concept, bindings in targets:
            patterns_ok &= resolve(concept, owner, written)
            for _, value in bindings:
                for ref in value[1]:
                    resolve(ref, owner, read)

        _, concept_name, _, _ = source_concept
        if not patterns_ok or concept_name not in source_concrete:
            continue
        cls = classify_rule(rule)
        copy_modes, mutation_modes, produced_as = folded.setdefault(concept_name, (set(), set(), set()))
        if cls.action == "copy":
            copy_modes.add(cls.mode)
            produced_as.update(cls.targets[1:])
        else:
            mutation_modes.add(cls.mode)
            produced_as.update(cls.targets)

    profiles = dict.fromkeys(source_concepts, ConceptProfile())
    for c, (copy_modes, mutation_modes, produced_as) in folded.items():
        profiles[c] = ConceptProfile(
            frozenset(copy_modes), frozenset(mutation_modes), target_concrete.intersection(produced_as)
        )

    ignored_in = source_concrete - mentioned_source
    ignored_out = target_concrete - mentioned_target

    # One Lint per concept, thousands on a wide metamodel and mostly the same in
    # every transformation of a library, so each is kept; a missing one is built
    # by tuple.__new__, without the namedtuple's Python-level __new__.
    new = tuple.__new__
    diagnostics = sorted(unknown, key=lambda l: (l.line, l.column))
    for kept, kind, names, universe, tail in (
        (never, "never_processed", mentioned_source.difference(folded), source_concepts,
         "is referenced but never copied or mutated"),
        (unread, "ignored_in", ignored_in, source_concepts,
         "appears in no source pattern, guard, binding, or helper body"),
        (unwritten, "ignored_out", ignored_out, target_concepts, "appears in no target pattern"),
    ):
        diagnostics += [
            kept.get(c) or kept.setdefault(c, new(Lint, (kind, c, f"concept '{c}' {tail}", None, None, None)))
            for c in declaration_order(names, universe)
        ]

    return AnalysisReport(
        transformation=transformation_name,
        source_mm=source_name,
        target_mm=target_name,
        profiles=profiles,
        target_concepts=target_concepts,
        ignored_in=ignored_in,
        ignored_out=ignored_out,
        refined_domain=source_concrete - ignored_in,
        refined_codomain=target_concrete - ignored_out,
        diagnostics=tuple(diagnostics),
    )


def detect_fixed_point(report: AnalysisReport) -> FixedPointVerdict:
    """Decide whether a transformation is a fixed-point candidate.

    True when the refined codomain equals the refined domain, at least
    one focal concept is both conditionally-or-lazily copied and
    conditionally mutated, and no other concept is mutated at all.
    Undefined (raises ValueError) for exogenous transformations.
    """
    if report.source_mm != report.target_mm:
        raise ValueError(
            "fixed-point detection requires an endogenous transformation; "
            f"'{report.transformation}' maps '{report.source_mm}' "
            f"to '{report.target_mm}'"
        )
    dom, cod = report.refined_domain, report.refined_codomain
    if dom != cod:
        sides = ("domain", report.profiles, dom - cod), ("codomain", report.target_concepts, cod - dom)
        parts = [f"{side} only: " + ", ".join(declaration_order(only, universe)) for side, universe, only in sides if only]
        return FixedPointVerdict(False, "refined domain and refined codomain differ (" + "; ".join(parts) + ")")
    focal = tuple(
        c
        for c, p in report.profiles.items()
        if (Mode.CONDITIONALLY in p.copy_modes or Mode.LAZILY in p.copy_modes)
        and Mode.CONDITIONALLY in p.mutation_modes
    )
    if not focal:
        return FixedPointVerdict(
            False,
            "no concept is both conditionally or lazily copied "
            "and conditionally mutated",
        )
    stray = [
        c
        for c, p in report.profiles.items()
        if c not in focal and p.mutation_modes
    ]
    if stray:
        return FixedPointVerdict(
            False,
            f"concepts outside the focal set ({', '.join(focal)}) are "
            f"mutated: {', '.join(stray)}",
            focal,
        )
    return FixedPointVerdict(
        True,
        "refined codomain equals refined domain and mutation is confined "
        f"to focal concepts: {', '.join(focal)}",
        focal,
    )
