"""The parsers of both dialects, over `lexer`. `metamodel.parse_metamodel` and `transformation.parse_transformation`
import it when called, so a command whose inputs all come from its cache loads neither it nor `lexer`."""
from __future__ import annotations

from bisect import bisect_left, bisect_right

from .lexer import TokenStream, capture_balanced, describe, is_ident
from .metamodel import Concept, Feature, Metamodel, ParseError
from .transformation import Binding, ConceptRef, Expression, Helper, Rule, TargetPattern, Transformation

_new = tuple.__new__  # the parsers give every field, so it skips the namedtuple's Python-level __new__


def metamodel(source_text: str, path: str | None) -> Metamodel:
    """What `metamodel.parse_metamodel(source_text, path=path)` returns or raises."""
    ts = TokenStream(source_text, path)
    texts = ts.texts
    ts.expect("metamodel")
    name = texts[ts.expect_ident("metamodel name")]
    ts.expect("{")

    concepts: list[Concept] = []
    declared_at: dict[str, int] = {}  # concept name -> the index of its name
    super_refs: list[tuple[str, str, int]] = []  # (concept, supertype, the index of its name)
    while not ts.accept("}"):
        abstract = ts.accept("abstract")
        ts.expect("class")
        name_at = ts.expect_ident("class name")
        cname = texts[name_at]
        if cname in declared_at:
            raise ts.error(f"duplicate concept name '{cname}'", name_at)
        declared_at[cname] = name_at

        supertypes: list[str] = []
        if ts.accept("extends"):
            while True:
                st = ts.expect_ident("supertype name")
                supertypes.append(texts[st])
                super_refs.append((cname, texts[st], st))
                if not ts.accept(","):
                    break

        ts.expect("{")
        features: list[Feature] = []
        while not ts.accept("}"):
            features.append(_parse_feature(ts))
        concepts.append(_new(Concept, (cname, abstract, tuple(supertypes), tuple(features))))
    ts.expect_eof()

    _validate_inheritance(ts, declared_at, super_refs)
    return Metamodel(name, tuple(concepts))


def _parse_feature(ts: TokenStream) -> Feature:
    kind = ts.texts[ts.pos]
    if kind not in ("attr", "ref"):
        raise ts.error(f"expected 'attr', 'ref', or '}}', found {describe(kind)}")
    ts.pos += 1
    fname = ts.texts[ts.expect_ident("feature name")]
    ts.expect(":")
    ftype = ts.texts[ts.expect_ident("feature type")]
    multiplicity = None
    if ts.accept("["):
        multiplicity = ts.slice(*capture_balanced(ts, ("]",), "multiplicity"))
        ts.expect("]")
    ts.expect(";")
    return _new(Feature, (kind, fname, ftype, multiplicity))


def _validate_inheritance(ts: TokenStream, declared_at: dict[str, int], super_refs: list[tuple[str, str, int]]) -> None:
    for owner, supertype, st in super_refs:
        if supertype not in declared_at:
            raise ts.error(f"unknown supertype '{supertype}' of concept '{owner}'", st)
    # An edge to a supertype declared earlier points back in declaration order,
    # and edges that all do cannot close a cycle.
    if all(declared_at[supertype] < declared_at[owner] for owner, supertype, _ in super_refs):
        return
    # graphlib walks nodes, and each node's successors (here its supertypes),
    # in insertion order and without recursion, so a deep chain cannot exhaust
    # the stack. All concepts go in before any edge: the walk starts at the first.
    from graphlib import CycleError, TopologicalSorter  # here, off the start-up path of every command
    graph = TopologicalSorter()
    for name in declared_at:
        graph.add(name)
    for owner, supertype, _ in super_refs:
        graph.add(supertype, owner)
    try:
        graph.prepare()
    except CycleError as exc:
        cycle = exc.args[1]
        raise ts.error("inheritance cycle: " + " -> ".join(cycle), declared_at[cycle[0]]) from None


def transformation(source_text: str, path: str | None) -> Transformation:
    """What `transformation.parse_transformation(source_text, path=path)` returns or raises."""
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

    return Transformation(name, source_mm, target_mm, tuple(helpers), tuple(rules), source_path=path)


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
