"""Metamodel dialect (.cmm): parsing, validation, and pretty-printing.

A metamodel is a named set of concepts (classes) with optional abstractness
and multiple inheritance. Attributes and references are parsed and carried
along, but only names, abstractness, and inheritance matter to analysis.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Collection, Sequence
from graphlib import CycleError, TopologicalSorter

from .lexer import ParseError, Token, TokenStream, capture_balanced


# kind: "attr" | "ref"; name, type_name: str; multiplicity: str | None, the text between the brackets
Feature = namedtuple("Feature", "kind name type_name multiplicity", defaults=(None,))

# name: str; abstract: bool; supertypes: tuple[str, ...]; features: tuple[Feature, ...]
Concept = namedtuple("Concept", "name abstract supertypes features", defaults=(False, (), ()))


class Metamodel(namedtuple("Metamodel", "name concepts", defaults=((),))):
    """A metamodel: `name` (str) and `concepts` (tuple[Concept, ...]) in declaration order."""

    __slots__ = ()

    @property
    def concept_names(self) -> frozenset[str]:
        return frozenset(c.name for c in self.concepts)


def parse_metamodel(source_text: str, *, path: str | None = None) -> Metamodel:
    """Parse and validate a metamodel file.

    Raises ParseError (with line and column) on syntax errors, duplicate
    concept names, unknown supertypes, and inheritance cycles.
    """
    ts = TokenStream(source_text, path)
    ts.expect("metamodel")
    name = ts.expect_ident("metamodel name").text
    ts.expect("{")

    concepts: list[Concept] = []
    decl_tokens: dict[str, Token] = {}
    super_tokens: list[tuple[str, Token]] = []
    while not ts.accept("}"):
        abstract = ts.accept("abstract")
        ts.expect("class")
        name_tok = ts.expect_ident("class name")
        if name_tok.text in decl_tokens:
            raise ts.error(f"duplicate concept name '{name_tok.text}'", name_tok)
        decl_tokens[name_tok.text] = name_tok

        supertypes: list[str] = []
        if ts.accept("extends"):
            while True:
                st = ts.expect_ident("supertype name")
                supertypes.append(st.text)
                super_tokens.append((name_tok.text, st))
                if not ts.accept(","):
                    break

        ts.expect("{")
        features: list[Feature] = []
        while not ts.accept("}"):
            features.append(_parse_feature(ts))
        concepts.append(
            Concept(name_tok.text, abstract, tuple(supertypes), tuple(features))
        )
    ts.expect_eof()

    _validate_inheritance(ts, decl_tokens, super_tokens)
    return Metamodel(name, tuple(concepts))


def _parse_feature(ts: TokenStream) -> Feature:
    tok = ts.peek()
    if not (ts.at("attr") or ts.at("ref")):
        raise ts.error(f"expected 'attr', 'ref', or '}}', found {tok.describe()}")
    kind = ts.advance().text
    fname = ts.expect_ident("feature name").text
    ts.expect(":")
    ftype = ts.expect_ident("feature type").text
    multiplicity = None
    if ts.accept("["):
        run = capture_balanced(ts, frozenset("]"), "multiplicity")
        multiplicity = ts.slice(run[0], run[-1])
        ts.expect("]")
    ts.expect(";")
    return Feature(kind, fname, ftype, multiplicity)


def _validate_inheritance(
    ts: TokenStream, decl_tokens: dict[str, Token], super_tokens: list[tuple[str, Token]]
) -> None:
    # graphlib walks nodes, and each node's successors (here its supertypes),
    # in insertion order and without recursion, so a deep chain cannot exhaust
    # the stack. All concepts go in before any edge: the walk starts at the first.
    graph = TopologicalSorter()
    for name in decl_tokens:
        graph.add(name)
    for owner, st in super_tokens:
        if st.text not in decl_tokens:
            raise ts.error(f"unknown supertype '{st.text}' of concept '{owner}'", st)
        graph.add(st.text, owner)
    try:
        graph.prepare()
    except CycleError as exc:
        cycle = exc.args[1]
        raise ts.error("inheritance cycle: " + " -> ".join(cycle), decl_tokens[cycle[0]]) from None


def concrete_concepts(mm: Metamodel) -> tuple[str, ...]:
    """Names of non-abstract concepts, in declaration order."""
    return tuple(c.name for c in mm.concepts if not c.abstract)


def declaration_order(universe: Sequence[str]) -> Callable[[Collection[str]], list[str]]:
    """Return a function listing a subset of universe in universe's order.

    The name-to-index map is built once, so listing many sets against one
    universe costs each set only its own size.
    """
    rank = dict(zip(universe, range(len(universe))))
    return lambda names: sorted(names, key=rank.__getitem__)


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
