"""Metamodel dialect (.cmm): records, their plain form, and pretty-printing; `parse` holds the parser.

A metamodel is a named set of concepts (classes) with optional abstractness
and multiple inheritance. Attributes and references are parsed and carried
along, but only names, abstractness, and inheritance matter to analysis.
`ParseError` and `one_line` live here, where every command finds them without loading a parser.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Collection, Iterable


class ParseError(Exception):
    """Syntax or validation error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int, path: str | None = None):
        prefix = f"{path}:" if path else ""
        super().__init__(f"{prefix}{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.path = path


# Every character on which str.splitlines() breaks, written as its code
# point so that a file name cannot split a diagnostic or error line.
_LINE_BREAKS = {ord(ch): f"U+{ord(ch):04X}" for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def one_line(text: str) -> str:
    return text if text.isprintable() else text.translate(_LINE_BREAKS)  # no line break is printable


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


def metamodel_to_plain(mm: Metamodel) -> tuple:
    """`mm` as the nested plain tuples, which marshal writes, that the command line keeps of a parsed input.
    Each record becomes the tuple of its values in field order; the analysis reads either form by position."""
    name, concepts = mm
    return (name, tuple([
        (concept_name, abstract, supertypes, tuple([
            (kind, feature_name, type_name, multiplicity) for kind, feature_name, type_name, multiplicity in features
        ]))
        for concept_name, abstract, supertypes, features in concepts
    ]))


def parse_metamodel(source_text: str, *, path: str | None = None) -> Metamodel:
    """Parse and validate a metamodel file.

    Raises ParseError (with line and column) on syntax errors, duplicate
    concept names, unknown supertypes, and inheritance cycles.
    """
    from . import parse  # here, so that a command whose inputs all come from its cache loads no parser
    return parse.metamodel(source_text, path)


def concrete_concepts(mm: Metamodel) -> tuple[str, ...]:
    """Names of non-abstract concepts, in declaration order. `mm` is read by position, so it may be
    a Metamodel or its `metamodel_to_plain`."""
    _, concepts = mm
    return tuple([name for name, abstract, _, _ in concepts if not abstract])


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
