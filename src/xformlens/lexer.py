"""Shared tokenizer and token cursor for the two analysis DSLs.

The metamodel (.cmm) and transformation (.tfm) dialects share the
lexical shape given by `_TOKEN`. OCL-style expressions are not lexed
into a grammar of their own; parsers capture them as balanced token runs.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from functools import cached_property


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


class Token(namedtuple("Token", "kind text offset")):
    """One token: `kind` is "ident", "int", "string", "symbol" or "eof", `text`
    its source text and `offset` the index of its first character."""

    __slots__ = ()

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        if self.text.isprintable():
            return f"'{self.text}'"
        # An invisible or line-breaking character is named by code point: the error stays one line.
        shown = "".join(ch if ch.isprintable() else f"U+{ord(ch):04X}" for ch in self.text)
        return shown if self.kind == "symbol" else f"'{shown}'"


# Blanks and comments are skipped before every token; the numbered group
# that matches gives the token's kind in `_KINDS`. A quote that does not
# close on its own line matches `unterminated`. `--` is tried before `-`,
# so `-->` is a comment, while `<--` is `<-` followed by `-`.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|--[^\n]*)*"
    r"(?:([^\W\d]\w*)"
    r"|(\d+)"
    r"|('[^'\n]*')"
    r"|(')"
    r"|(<-|->|\.\.|.)"
    r"|(\Z))"
)
_KINDS = (None, "ident", "int", "string", "unterminated", "symbol", "eof")


def tokenize(source: str, path: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__
    # Every position matches (`.` takes all but the newlines that the blank
    # prefix eats), so the matches tile the source; stop at the first `eof`.
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        kind, start = _KINDS[group], m.start(group)
        if kind == "unterminated":
            line = source.count("\n", 0, start) + 1
            column = start - source.rfind("\n", 0, start)
            raise ParseError("unterminated string literal", line, column, path)
        append(new(Token, (kind, m[group], start)))
        if kind == "eof":
            return tokens


class TokenStream:
    """Cursor over a token list that matches keywords and punctuation by text.

    Tokens of different kinds never share a text, so `at("class")` only
    matches an identifier and `at("{")` only a symbol. Keywords are
    contextual: their spellings stay usable as plain names.
    """

    def __init__(self, source: str, path: str | None = None):
        self.source = source
        self.path = path
        self.tokens = tokenize(source, path)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    # No keyword or symbol is spelled "", the text of `eof`, so a token that
    # these three match is never the last one and `pos` can step past it.
    def accept(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise self.error(f"expected '{text}', found {tok.describe()}")
        self.pos += 1
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            raise self.error(f"expected {what}, found {tok.describe()}")
        self.pos += 1
        return tok

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            raise self.error(f"expected end of input, found {self.peek().describe()}")

    def error(self, message: str, token: Token | None = None) -> ParseError:
        tok = token if token is not None else self.peek()
        return ParseError(message, *self.position(tok), self.path)

    @cached_property
    def _line_breaks(self) -> list[int]:
        # The offset of every newline, after -1 for the start of the text.
        return [-1, *[m.start() for m in re.finditer("\n", self.source)]]

    def position(self, tok: Token) -> tuple[int, int]:
        """The 1-based line and column (in code points, a tab as one) of `tok`."""
        breaks = self._line_breaks
        line = bisect_left(breaks, tok.offset)
        return line, tok.offset - breaks[line - 1]

    def slice(self, first: Token, last: Token) -> str:
        return self.source[first.offset : last.offset + len(last.text)]


_CLOSER_OF = {"(": ")", "[": "]", "{": "}"}


def capture_balanced(ts: TokenStream, stops: frozenset[str], what: str) -> list[Token]:
    """Collect tokens until a stop symbol outside every bracket.

    The stop symbol is not consumed. Raises on end of input, on a closing
    bracket that has no opener in the captured run, and on one that
    closes a bracket of another kind.
    """
    tokens, start = ts.tokens, ts.pos
    expected: list[str] = []  # the closer of each open bracket, innermost last
    for i in range(start, len(tokens)):
        tok = tokens[i]
        text = tok.text
        if not expected and text in stops:
            break
        if text in _CLOSER_OF:
            expected.append(_CLOSER_OF[text])
        elif text in (")", "]", "}"):
            if not expected:
                raise ts.error(f"unbalanced '{text}' in {what}", tok)
            if expected.pop() != text:
                raise ts.error(f"mismatched '{text}' in {what}", tok)
        elif tok.kind == "eof":
            raise ts.error(f"unterminated {what}", tok)
    if i == start:
        raise ts.error(f"expected {what}")
    ts.pos = i
    return tokens[start:i]
