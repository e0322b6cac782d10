"""Shared tokenizer and token cursor for the two analysis DSLs.

The metamodel (.cmm) and transformation (.tfm) dialects share the
lexical shape given by `_TOKEN`; a source lexes into flat lists of token
texts and start offsets. OCL-style expressions are not lexed into a
grammar of their own; parsers capture them as balanced token runs.
"""
from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, compress, count, islice
from operator import add

from .metamodel import ParseError, one_line  # noqa: F401 - one_line too stays importable from here


# One token per match, tried in this order: a comment, an identifier, an
# integer, a string, a lone quote (an unterminated string), a two-character
# symbol, and any other character but a blank. A comment or string ends at
# CR or LF. `--` is tried before `-`, so `-->` is a comment, while `<--` is
# `<-` followed by `-`.
_TOKEN = re.compile(r"(--[^\r\n]*|[^\W\d]\w*|\d+|'[^'\r\n]*'|'|<-|->|\.\.|[^ \t\r\n])")
# On ASCII text the ASCII classes of `\w` and `\d` match what the Unicode ones do, and match faster.
_ASCII_TOKEN = re.compile(_TOKEN.pattern, re.ASCII)
_DASH_PAIR = re.compile("-(?=-)")  # every `--`, overlapping ones too


class Tokens(list):
    """Token texts in order, the last "" for end of input; `starts[i]` is the offset of token i."""

    __slots__ = ("starts",)


def tokenize(source: str, path: str | None = None) -> Tokens:
    # Only blanks lie between two matches, so the split's odd parts are the token texts, and the
    # running length of the parts at each even part is where the next token, or end of input, starts.
    parts = (_ASCII_TOKEN if source.isascii() else _TOKEN).split(source)
    texts = parts[1::2]
    texts.append("")
    starts = list(islice(accumulate(map(len, parts)), 0, None, 2))
    if "'" in texts:
        raise ParseError("unterminated string literal", *position(line_starts(source), starts[texts.index("'")]), path)
    keep = [True] * len(starts)  # a token that starts at a `--` is a comment: drop it from both lists
    for m in _DASH_PAIR.finditer(source):
        k = bisect_left(starts, m.start())
        if starts[k] == m.start():
            keep[k] = False
    tokens = Tokens(compress(texts, keep))
    tokens.starts = list(compress(starts, keep))
    return tokens


def line_starts(source: str) -> list[int]:
    """The offset of each line's first character. CR LF, a lone CR and LF each end a line:
    CR LF becomes blank-LF and a lone CR becomes LF, so each line end is one LF at an
    unchanged offset, and line k + 1 starts after the k lines before it and their k LFs."""
    lines = source.replace("\r\n", " \n").replace("\r", "\n").split("\n")
    return [0, *map(add, accumulate(map(len, lines[:-1])), count(1))]


def position(starts_of_lines: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column (in code points, a tab as one) of `offset`."""
    line = bisect_right(starts_of_lines, offset)
    return line, offset - starts_of_lines[line - 1] + 1


def is_ident(text: str) -> bool:
    """True for a token that starts with a letter, `_` or a non-decimal numeric character such as `²`."""
    head = text[:1]
    return head.isalpha() or head == "_" or (head.isnumeric() and not head.isdecimal())


def describe(text: str) -> str:
    """A token's text as an error names it: an invisible or line-breaking
    character by its code point, so that the error stays one line."""
    if not text:
        return "end of input"
    shown = "".join(ch if ch.isprintable() else f"U+{ord(ch):04X}" for ch in text)
    return f"'{shown}'" if text.isprintable() or text[0] == "'" else shown


class TokenStream:
    """Cursor over a source's token texts that matches keywords and punctuation by text.

    Tokens of different kinds never share a text, so `accept("class")` only
    matches an identifier and `accept("{")` only a symbol. Keywords are
    contextual: their spellings stay usable as plain names.
    """

    def __init__(self, source: str, path: str | None = None):
        self.source = source = source.removeprefix("\ufeff")  # one byte order mark, as editors write it
        self.path = path
        self.texts = tokenize(source, path)
        self.pos = 0

    # No keyword or symbol is spelled "", the text of end of input, so a
    # token that these three match is never the last one and `pos` can step past it.
    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self.error(f"expected '{text}', found {describe(self.texts[self.pos])}")
        self.pos += 1

    def expect_ident(self, what: str = "identifier") -> int:
        """Step past an identifier and return its index."""
        i = self.pos
        text = self.texts[i]
        if not is_ident(text):
            raise self.error(f"expected {what}, found {describe(text)}")
        self.pos = i + 1
        return i

    def expect_eof(self) -> None:
        if self.texts[self.pos]:
            raise self.error(f"expected end of input, found {describe(self.texts[self.pos])}")

    def error(self, message: str, index: int | None = None) -> ParseError:
        return ParseError(message, *self.position(self.pos if index is None else index), self.path)

    @cached_property
    def line_starts(self) -> list[int]:
        """The offset of each line's first character, computed when first asked for."""
        return line_starts(self.source)

    def position(self, index: int) -> tuple[int, int]:
        """The 1-based line and column of token `index`."""
        return position(self.line_starts, self.texts.starts[index])

    def slice(self, start: int, stop: int) -> str:
        """The source text from token `start` to the end of token `stop - 1`."""
        return self.source[self.texts.starts[start] : self.texts.starts[stop - 1] + len(self.texts[stop - 1])]


_CLOSER_OF = {"(": ")", "[": "]", "{": "}"}
_BOUNDS = {*"()[]{},;=", ""}  # every bracket, every stop symbol a parser passes, and end of input


def capture_balanced(ts: TokenStream, stops: tuple[str, ...], what: str) -> tuple[int, int]:
    """Step over tokens until a stop symbol outside every bracket, and
    return the index range of the run.

    The stop symbol is not consumed. Raises on end of input, on a closing
    bracket that has no opener in the captured run, and on one that
    closes a bracket of another kind.
    """
    texts, start = ts.texts, ts.pos
    expected: list[str] = []  # the closer of each open bracket, innermost last
    for i in range(start, len(texts)):
        text = texts[i]
        if text not in _BOUNDS:  # only a bracket, a stop or end of input can end the run or be wrong
            continue
        if not expected and text in stops:
            break
        if text in _CLOSER_OF:
            expected.append(_CLOSER_OF[text])
        elif text in (")", "]", "}"):
            if not expected:
                raise ts.error(f"unbalanced '{text}' in {what}", i)
            if expected.pop() != text:
                raise ts.error(f"mismatched '{text}' in {what}", i)
        elif not text:
            raise ts.error(f"unterminated {what}", i)
    if i == start:
        raise ts.error(f"expected {what}")
    ts.pos = i
    return start, i
