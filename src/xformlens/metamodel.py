"""Metamodel dialect (.cmm): parsing, validation, and pretty-printing.

A metamodel is a named set of concepts (classes) with optional abstractness
and multiple inheritance. Attributes and references are parsed and carried
along, but only names, abstractness, and inheritance matter to analysis.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Collection, Iterable
from functools import partial

from .lexer import TokenStream, capture_balanced, describe


# kind: "attr" | "ref"; name, type_name: str; multiplicity: str | None, the text between the brackets
Feature = namedtuple("Feature", "kind name type_name multiplicity", defaults=(None,))

# name: str; abstract: bool; supertypes: tuple[str, ...]; features: tuple[Feature, ...]
Concept = namedtuple("Concept", "name abstract supertypes features", defaults=(False, (), ()))

_new = tuple.__new__  # the parser gives every field, so it skips the namedtuple's Python-level __new__


class Metamodel(namedtuple("Metamodel", "name concepts", defaults=((),))):
    """A metamodel: `name` (str) and `concepts` (tuple[Concept, ...]) in declaration order."""

    __slots__ = ()

    @property
    def concept_names(self) -> frozenset[str]:
        return frozenset(c.name for c in self.concepts)


# The command line keeps a parsed input as nested plain tuples, which marshal writes; this walk alone
# states their layout. It builds each record by tuple.__new__ as the type given for its kind: `tuple`
# for every kind writes the plain form, since tuple.__new__(tuple, x) is a plain tuple of x's items,
# and Metamodel, Concept and Feature rebuild the Metamodel.
def _walk(mm, metamodel, concept, feature):
    feature = partial(_new, feature)
    name, concepts = mm
    return _new(metamodel, (name, tuple([
        _new(concept, (cname, abstract, supertypes, tuple(map(feature, features))))
        for cname, abstract, supertypes, features in concepts
    ])))


def metamodel_to_plain(mm: Metamodel) -> tuple:
    """`mm` with every record in it written as a plain tuple."""
    return _walk(mm, tuple, tuple, tuple)


def metamodel_from_plain(plain: tuple) -> Metamodel:
    """The Metamodel whose `metamodel_to_plain` is `plain`."""
    return _walk(plain, Metamodel, Concept, Feature)


def parse_metamodel(source_text: str, *, path: str | None = None) -> Metamodel:
    """Parse and validate a metamodel file.

    Raises ParseError (with line and column) on syntax errors, duplicate
    concept names, unknown supertypes, and inheritance cycles.
    """
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


def _validate_inheritance(
    ts: TokenStream, declared_at: dict[str, int], super_refs: list[tuple[str, str, int]]
) -> None:
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


def concrete_concepts(mm: Metamodel) -> tuple[str, ...]:
    """Names of non-abstract concepts, in declaration order."""
    return tuple(c.name for c in mm.concepts if not c.abstract)


def declaration_order(names: Collection[str], universe: Iterable[str]) -> list[str]:
    """The members of `names` (a set) in `universe`'s order, such as a metamodel's declaration order."""
    return list(filter(names.__contains__, universe))


def pretty_print(mm: Metamodel) -> str:
    """Render a metamodel back to canonical source text.

    Re-parsing the output yields a structurally identical Metamodel.
    """
    lines = [f"metamodel {mm.name} {{"]
    for c in mm.concepts:
        head = "abstract class" if c.abstract else "class"
        head = f"{head} {c.name}"
        if c.supertypes:
            head += " extends " + ", ".join(c.supertypes)
        if not c.features:
            lines.append(f"  {head} {{}}")
            continue
        lines.append(f"  {head} {{")
        for f in c.features:
            decl = f"    {f.kind} {f.name} : {f.type_name}"
            if f.multiplicity is not None:
                decl += f" [{f.multiplicity}]"
            lines.append(decl + ";")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
