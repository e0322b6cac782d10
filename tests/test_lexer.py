"""Shared lexer: token kinds, positions, comments, and contextual keywords."""
from __future__ import annotations

import re
import sys

import pytest

from xformlens import ParseError, parse_metamodel, parse_transformation
from xformlens.lexer import _TOKEN, TokenStream, is_ident, tokenize

from helpers import CORPUS, lexed, named, reference_tokenize


def stream(source):
    ts = TokenStream(source)
    return [(kind, text, *ts.position(i), offset) for i, (kind, text, offset) in enumerate(lexed(source))]


def texts(source):
    return list(tokenize(source))


def test_every_kind():
    assert stream("abc _x1 42 'a b' ;") == [
        ("ident", "abc", 1, 1, 0),
        ("ident", "_x1", 1, 5, 4),
        ("int", "42", 1, 9, 8),
        ("string", "'a b'", 1, 12, 11),
        ("symbol", ";", 1, 18, 17),
        ("eof", "", 1, 19, 18),
    ]


def test_identifiers_and_integers_split_where_the_word_starts():
    assert stream("1a a1 é_2") == [
        ("int", "1", 1, 1, 0),
        ("ident", "a", 1, 2, 1),
        ("ident", "a1", 1, 4, 3),
        ("ident", "é_2", 1, 7, 6),
        ("eof", "", 1, 10, 9),
    ]


def test_two_character_symbols():
    assert texts("a<-b->c..d") == ["a", "<-", "b", "->", "c", "..", "d", ""]
    assert texts("<->...!") == ["<-", ">", "..", ".", "!", ""]


def test_double_dash_starts_a_comment_even_before_an_arrow_head():
    assert stream("a --> b\nc") == [
        ("ident", "a", 1, 1, 0),
        ("ident", "c", 2, 1, 8),
        ("eof", "", 2, 2, 9),
    ]


def test_left_arrow_then_dash_is_not_a_comment():
    assert texts("a <-- b") == ["a", "<-", "-", "b", ""]
    assert texts("a <--- b\nc") == ["a", "<-", "c", ""]


def test_crlf_and_tab_columns():
    assert stream("a\r\n\tb\r\n  c\t;") == [
        ("ident", "a", 1, 1, 0),
        ("ident", "b", 2, 2, 4),
        ("ident", "c", 3, 3, 9),
        ("symbol", ";", 3, 5, 11),
        ("eof", "", 3, 6, 12),
    ]


def test_a_lone_cr_ends_a_line_a_comment_and_a_string():
    assert stream("a\rb\r\r\nc -- d\re\n\r'f'") == [
        ("ident", "a", 1, 1, 0),
        ("ident", "b", 2, 1, 2),
        ("ident", "c", 4, 1, 6),
        ("ident", "e", 5, 1, 13),
        ("string", "'f'", 7, 1, 16),
        ("eof", "", 7, 4, 19),
    ]


@pytest.mark.parametrize(
    "source, line, column",
    [("x\n  'abc", 2, 3), ("x\n  'abc\n'", 2, 3), ("'ok' '", 1, 6), ("x\r  'a\rb'", 2, 3), ("a\r\n'", 2, 1)],
)
def test_unterminated_string_is_reported_at_its_quote(source, line, column):
    with pytest.raises(ParseError) as exc:
        tokenize(source, "probe.tfm")
    assert exc.value.message == "unterminated string literal"
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"probe.tfm:{line}:{column}: unterminated string literal"


@pytest.mark.parametrize("path", sorted(p for p in CORPUS.rglob("*") if p.is_file()), ids=lambda p: p.name)
def test_every_fixture_file_lexes_as_the_reference_scanner_lexes_it(path):
    source = path.read_text(encoding="utf-8")
    assert lexed(source) == reference_tokenize(source)


def test_keyword_spellings_are_names_in_metamodels():
    mm = parse_metamodel(
        "metamodel metamodel { class class {} "
        "abstract class abstract extends class { attr attr : ref; } }"
    )
    assert mm.name == "metamodel"
    assert [c.name for c in mm.concepts] == ["class", "abstract"]
    abstract = named(mm.concepts, "abstract")
    assert abstract.abstract
    assert abstract.supertypes == ("class",)
    feature = abstract.features[0]
    assert (feature.kind, feature.name, feature.type_name) == ("attr", "attr", "ref")


def test_keyword_spellings_are_names_in_transformations():
    t = parse_transformation(
        "module rule;\n"
        "create OUT : M from IN : M;\n"
        "rule rule { from s : M!rule to t : M!rule() }\n"
        "lazy rule to extends rule {\n"
        "  from from : M!rule\n"
        "  to to : M!lazy(helper <- from.to)\n"
        "}\n"
    )
    assert t.name == "rule"
    assert [r.name for r in t.rules] == ["rule", "to"]
    lazy = named(t.rules, "to")
    assert lazy.lazy
    assert lazy.parent_rule == "rule"
    assert lazy.source_var == "from"
    assert lazy.targets[0].var == "to"
    assert lazy.targets[0].concept.qualified == "M!lazy"
    binding = lazy.targets[0].bindings[0]
    assert (binding.feature, binding.value.raw) == ("helper", "from.to")


def test_end_of_input_after_a_trailing_comment_is_at_the_true_end():
    assert stream("a -- c") == [("ident", "a", 1, 1, 0), ("eof", "", 1, 7, 6)]
    with pytest.raises(ParseError) as exc:
        parse_metamodel("metamodel M { -- c")
    assert str(exc.value) == "1:19: expected 'class', found end of input"


def test_non_decimal_numeric_characters_begin_identifiers():
    assert stream("²x ½ 1²") == [
        ("ident", "²x", 1, 1, 0),
        ("ident", "½", 1, 4, 3),
        ("int", "1", 1, 6, 5),
        ("ident", "²", 1, 7, 6),
        ("eof", "", 1, 8, 7),
    ]


def test_is_ident_agrees_with_the_lexers_identifier_alternative_on_every_code_point():
    # The parsers judge a token an identifier by is_ident; the lexer by this alternative of _TOKEN.
    alternative = r"[^\W\d]\w*"
    assert f"|{alternative}|" in _TOKEN.pattern
    starts_ident = re.compile(alternative).match
    mismatches = [
        f"U+{cp:04X}" for cp in range(sys.maxunicode + 1) if is_ident(chr(cp)) != bool(starts_ident(chr(cp)))
    ]
    assert mismatches == []


_HEADER = "module t;\ncreate OUT : M from IN : M;\n"


# Each way `capture_balanced` fails, in both parsers: end of input, a
# closing bracket with no opener, a closing bracket of another kind than
# the innermost open one (in each kind of captured run), and an empty run
# before the stop. Then text after the end, in both parsers, and a
# metamodel member that is neither a feature nor the closing brace.
@pytest.mark.parametrize(
    "parse, source, message",
    [
        (
            parse_transformation,
            _HEADER + "rule r { from s : M!A (s.x = (1 to t : M!A()",
            "p:3:45: unterminated guard expression",
        ),
        (
            parse_transformation,
            _HEADER + "rule r { from s : M!A (s.x = (1 to t : M!A() }",
            "p:3:46: mismatched '}' in guard expression",
        ),
        (
            parse_transformation,
            _HEADER + "rule C { from s : M!Circle (s.x[ ) and M!Square.f( ]) to t : M!Circle() }",
            "p:3:34: mismatched ')' in guard expression",
        ),
        (
            parse_transformation,
            _HEADER + "rule r { from s : M!A to t : M!A(x <- s.f[1)) }",
            "p:3:44: mismatched ')' in binding expression",
        ),
        (
            parse_transformation,
            _HEADER + "rule r { from s : M!A () to t : M!A() }",
            "p:3:24: expected guard expression",
        ),
        (
            parse_transformation,
            _HEADER + "rule r { from s : M!A to t : M!A(x <- ) }",
            "p:3:39: expected binding expression",
        ),
        (
            parse_transformation,
            _HEADER + "helper def : h : Boolean = (1",
            "p:3:30: unterminated helper body",
        ),
        (
            parse_transformation,
            _HEADER + "helper def : h : Boolean = (1]",
            "p:3:30: mismatched ']' in helper body",
        ),
        (
            parse_metamodel,
            "metamodel M { class A { attr x : Int [0..; } }",
            "p:1:44: unbalanced '}' in multiplicity",
        ),
        (
            parse_metamodel,
            "metamodel M { class A { attr x : Int [(0..]; } }",
            "p:1:43: mismatched ']' in multiplicity",
        ),
        (
            parse_metamodel,
            "metamodel M { class A { attr x : Int []; } }",
            "p:1:39: expected multiplicity",
        ),
        (
            parse_transformation,
            _HEADER + "rule r { from s : M!A to t : M!A() } }",
            "p:3:38: expected end of input, found '}'",
        ),
        (parse_metamodel, "metamodel M { class A {} } x", "p:1:28: expected end of input, found 'x'"),
        (parse_metamodel, "metamodel M { class A { x } }", "p:1:25: expected 'attr', 'ref', or '}', found 'x'"),
    ],
)
def test_balanced_capture_errors(parse, source, message):
    with pytest.raises(ParseError) as exc:
        parse(source, path="p")
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "char, shown",
    [("\u200b", "U+200B"), ("\u00a0", "U+00A0"), ("\f", "U+000C"), ("\0", "U+0000"), ("\u2028", "U+2028")],
)
def test_invisible_symbols_are_named_by_code_point(char, shown):
    with pytest.raises(ParseError) as exc:
        parse_metamodel("metamodel M {" + char)
    assert str(exc.value) == f"1:14: expected 'class', found {shown}"


@pytest.mark.parametrize(
    "char, shown",
    [("\f", "U+000C"), ("\u2028", "U+2028"), ("\u200b", "U+200B"), ("\0", "U+0000")],
)
def test_invisible_characters_in_a_string_are_named_by_code_point(char, shown):
    with pytest.raises(ParseError) as exc:
        parse_metamodel("metamodel M { 'a" + char + "b' }")
    assert str(exc.value) == f"1:15: expected 'class', found ''a{shown}b''"


@pytest.mark.parametrize(
    "parse, name, broken, position",
    [(parse_metamodel, "pivot.cmm", "metamodel M {\n\tclass }", "2:8"),
     (parse_transformation, "recordRemoval.tfm", "module m; create }", "1:18")],
    ids=["metamodel", "transformation"],
)
def test_one_leading_byte_order_mark_is_dropped(parse, name, broken, position):
    text = (CORPUS / name).read_text(encoding="utf-8")
    assert parse("\ufeff" + text, path=name) == parse(text, path=name)
    with pytest.raises(ParseError, match=f"^{name}:{position}: ") as plain:
        parse(broken, path=name)
    with pytest.raises(ParseError) as marked:
        parse("\ufeff" + broken, path=name)
    assert str(marked.value) == str(plain.value)
    with pytest.raises(ParseError, match=f"^{name}:1:1: expected '\\w+', found U\\+FEFF$"):
        parse("\ufeff\ufeff" + text, path=name)  # a second mark is a stray character
