"""Randomized invariants over parsing, analysis, and rendering."""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import tempfile

from hypothesis import example, given, settings, strategies as st

from xformlens import (
    AnalysisReport,
    ConceptProfile,
    Lint,
    Mode,
    ParseError,
    Table,
    analyze,
    concrete_concepts,
    parse_metamodel,
    parse_transformation,
    pretty_print,
    profile_groups,
    propagate,
    render,
    report_to_json,
    table_from_json,
)
from xformlens.cli import COMMANDS, main
from xformlens.lexer import TokenStream
from xformlens.metamodel import declaration_order
from xformlens.report import render_reports

from helpers import (
    CORPUS,
    lexed,
    naive_profiles,
    naive_propagate,
    random_metamodel_text,
    random_transformation_text,
    reference_position,
    reference_report_dict,
    reference_tokenize,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _case(seed):
    rng = random.Random(seed)
    mm = parse_metamodel(random_metamodel_text(rng))
    t = parse_transformation(
        random_transformation_text(rng, list(concrete_concepts(mm)))
    )
    return rng, mm, t


@given(seeds)
@settings(deadline=None)
def test_metamodel_pretty_print_round_trips(seed):
    rng = random.Random(seed)
    mm = parse_metamodel(random_metamodel_text(rng))
    printed = pretty_print(mm)
    reparsed = parse_metamodel(printed)
    assert reparsed == mm
    assert pretty_print(reparsed) == printed


@given(seeds)
@settings(deadline=None)
def test_profiles_are_total_in_declaration_order(seed):
    _, mm, t = _case(seed)
    report = analyze(t, mm, mm)
    assert tuple(report.profiles) == concrete_concepts(mm)
    assert report.source_concepts == concrete_concepts(mm)


@given(seeds)
@settings(deadline=None)
def test_profile_groups_partition_the_refined_domain(seed):
    _, mm, t = _case(seed)
    report = analyze(t, mm, mm)
    groups = profile_groups(report)
    seen = [c for g in groups for c in g.concepts]
    assert len(seen) == len(set(seen))
    assert set(seen) == set(report.refined_domain)
    for g in groups:
        for c in g.concepts:
            profile = report.profiles[c]
            assert profile.copy_modes == g.copy_modes
            assert profile.mutation_modes == g.mutation_modes


@given(seeds)
@settings(deadline=None)
def test_profiles_match_reference_fold(seed):
    _, mm, t = _case(seed)
    report = analyze(t, mm, mm)
    expected = naive_profiles(t, mm, mm)
    for concept, (copy_modes, mutation_modes, produced) in expected.items():
        profile = report.profiles[concept]
        assert {m.value for m in profile.copy_modes} == copy_modes
        assert {m.value for m in profile.mutation_modes} == mutation_modes
        assert profile.produced_as == frozenset(produced)


@given(seeds)
@settings(deadline=None)
def test_adding_a_rule_never_shrinks_profiles(seed):
    rng = random.Random(seed)
    mm = parse_metamodel(random_metamodel_text(rng))
    names = list(concrete_concepts(mm))
    body = random_transformation_text(rng, names)
    source = rng.choice(names)
    target = rng.choice(names)
    extra = f"rule zzExtra {{ from s : MM!{source} to t : MM!{target}() }}"
    smaller = parse_transformation(body)
    bigger = parse_transformation(body.rstrip("\n") + "\n" + extra + "\n")
    smaller_report = analyze(smaller, mm, mm)
    bigger_report = analyze(bigger, mm, mm)
    for concept in concrete_concepts(mm):
        small = smaller_report.profiles[concept]
        big = bigger_report.profiles[concept]
        assert small.copy_modes <= big.copy_modes
        assert small.mutation_modes <= big.mutation_modes
        assert small.produced_as <= big.produced_as


@given(seeds)
@settings(deadline=None)
def test_refined_sets_complement_ignored_sets(seed):
    _, mm, t = _case(seed)
    report = analyze(t, mm, mm)
    universe = frozenset(concrete_concepts(mm))
    assert report.refined_domain == universe - report.ignored_in
    assert report.refined_codomain == universe - report.ignored_out
    assert report.ignored_in <= universe
    assert report.ignored_out <= universe


@given(seeds)
@settings(deadline=None)
def test_propagate_is_monotone_and_bounded(seed):
    rng, mm, t = _case(seed)
    report = analyze(t, mm, mm)
    names = list(concrete_concepts(mm))
    small = frozenset(c for c in names if rng.random() < 0.4)
    large = small | frozenset(c for c in names if rng.random() < 0.4)
    assert propagate(small, report) <= propagate(large, report)
    assert propagate(large, report) <= frozenset(names)
    assert propagate(small, report) == naive_propagate(small, report)


@given(seeds)
@settings(deadline=None)
def test_unknown_diagnostics_are_position_sorted(seed):
    _, mm, t = _case(seed)
    report = analyze(t, mm, mm)
    unknown = [d for d in report.diagnostics if d.kind == "unknown_concept"]
    positions = [(d.line, d.column) for d in unknown]
    assert positions == sorted(positions)


@given(seeds)
@settings(deadline=None)
def test_report_json_round_trips_and_orders_modes(seed):
    _, mm, t = _case(seed)
    report = analyze(t, mm, mm)
    data = json.loads(report_to_json(report))
    assert json.loads(json.dumps(data)) == data
    order = {"always": 0, "conditionally": 1, "lazily": 2}
    for profile in data["profiles"]:
        for key in ("copy_modes", "mutation_modes"):
            modes = profile[key]
            assert modes == sorted(modes, key=order.__getitem__)


# Text the JSON writer must escape as json.dumps does: quotes, backslashes,
# control characters, non-ASCII and astral characters, and lone surrogates
# from U+DC80-U+DCFF, which stand for a file name's undecodable bytes.
json_text = st.text(alphabet=list('aZ_ 1"\\/\x00\x1f\x7f\n\t\u00e9\u4e2d\u2028\ufeff\U0001f600\udc80\udcfe\udcff'), max_size=6)


optional_int = st.none() | st.integers(min_value=0, max_value=10**6)
lints = st.builds(Lint, json_text, json_text, json_text, st.none() | json_text, optional_int, optional_int)


def _profile_pool(draw, target):
    """The empty profile and up to three drawn over the target universe."""

    def modes():
        return frozenset(draw(st.sets(st.sampled_from(Mode))))

    return [ConceptProfile()] + [
        ConceptProfile(modes(), modes(), _subset(draw, target)) for _ in range(draw(st.integers(0, 3)))
    ]


def _subset(draw, universe):
    return frozenset(draw(st.lists(st.sampled_from(universe), max_size=len(universe))) if universe else ())


def _report(draw, source, target, pool, diagnostics):
    """A report over the universes `source` and `target` (a tuple), its
    profiles drawn from `pool` and its diagnostics from the strategy `diagnostics`."""
    profiles = {}
    for c in source:
        p = draw(st.sampled_from(pool))
        # The same object, or an equal profile that is a distinct object.
        profiles[c] = ConceptProfile(*p) if draw(st.booleans()) else p
    diagnostics = draw(diagnostics)
    name = draw(json_text)
    return AnalysisReport(
        draw(json_text),
        name,
        draw(st.just(name) | json_text),  # endogenous or not
        profiles,
        target,
        _subset(draw, source),
        _subset(draw, target),
        _subset(draw, source),
        _subset(draw, target),
        tuple(diagnostics),
    )


@st.composite
def analysis_reports(draw):
    """Any AnalysisReport the JSON writer may meet, consistent or not."""
    source = draw(st.lists(json_text, unique=True, max_size=6))
    target = draw(st.lists(json_text, unique=True, max_size=6))
    return _report(draw, source, tuple(target), _profile_pool(draw, target), st.lists(lints, max_size=4))


@st.composite
def libraries(draw):
    """One to four reports over one target universe object, their profiles
    and diagnostics drawn from one pool, as the reports of a library repeat
    each other's entries; a drawn diagnostic may be an equal distinct object."""
    source = draw(st.lists(json_text, unique=True, max_size=6))
    target = tuple(draw(st.lists(json_text, unique=True, max_size=6)))
    pool = _profile_pool(draw, target)
    findings = draw(st.lists(lints, min_size=1, max_size=4))
    diagnostics = st.lists(st.sampled_from(findings + [Lint(*d) for d in findings]), max_size=6)
    return [_report(draw, source, target, pool, diagnostics) for _ in range(draw(st.integers(1, 4)))]


@given(analysis_reports())
@settings(deadline=None)
def test_report_to_json_writes_what_json_dumps_writes(report):
    assert report_to_json(report) == json.dumps(reference_report_dict(report), indent=2)


@given(st.lists(analysis_reports(), max_size=3))
@example([])
@settings(deadline=None, max_examples=50)
def test_analyze_json_writes_what_json_dumps_writes(reports):
    expected = json.dumps([reference_report_dict(r) for r in reports], indent=2) + "\n"
    assert render_reports(reports, "json") == expected


@given(st.data(), libraries(), analysis_reports(), st.sampled_from(["", "  ", "    "]))
@settings(deadline=None, max_examples=50)
def test_json_texts_kept_across_reports_are_what_json_dumps_writes(data, library, other, indent):
    # One `texts` dict passed to every call at one depth, as render_reports passes
    # its own: a diagnostic's text kept from one report and met again in another,
    # of the library or over another target universe, must be json.dumps's bytes.
    seen = [d for r in library for d in r.diagnostics]
    met_again = data.draw(st.lists(st.sampled_from(seen), max_size=3)) if seen else []
    other = other._replace(diagnostics=(*met_again, *other.diagnostics))
    texts: dict = {}
    for r in data.draw(st.lists(st.sampled_from([*library, other]), min_size=1, max_size=8)):
        expected = json.dumps(reference_report_dict(r), indent=2).replace("\n", "\n" + indent)
        assert report_to_json(r, indent, texts) == expected


@st.composite
def universes_and_subsets(draw):
    """A universe of distinct names, as a tuple or as a dict's keys (as
    `AnalysisReport.profiles` holds them), and subsets of it of size 0, 1, any, and all."""
    names = draw(st.lists(st.text(max_size=3), unique=True, max_size=40))
    universe = draw(st.sampled_from([tuple, dict.fromkeys]))(names)
    subsets = []
    for size in draw(st.lists(st.sampled_from(["none", "one", "any", "all"]), min_size=1, max_size=6)):
        k = {"none": 0, "one": min(1, len(names)), "all": len(names)}.get(size)
        if k is None:
            k = draw(st.integers(0, len(names)))
        subsets.append(frozenset(draw(st.permutations(names))[:k]))
    return universe, subsets


@given(universes_and_subsets())
@example(((), [frozenset()]))
@example(({}, [frozenset()]))
@settings(deadline=None)
def test_declaration_order_lists_a_subset_in_universe_order(case):
    universe, subsets = case
    for names in subsets:
        assert declaration_order(names, universe) == [c for c in universe if c in names]


# Text built from the lexer's edge cases: quotes, comments and the
# two-character symbols, line ends and tabs, letters and digits beyond
# ASCII (`²` is a word character but no digit, `٣` a digit), control
# characters, and any other code point.
_LEXER_PIECES = ["'", "--", "<-", "->", "..", "-", "<", ">", ".", "!", "\r", "\n", "\t", " ", "\r\n",
                 "a", "_", "é", "ß", "Ⅻ", "7", "٣", "²", "½", "\x00", "\x0b", "\x0c", "\x1f", "\x7f", "\x85", "\u2028"]
lexer_text = st.lists(st.sampled_from(_LEXER_PIECES) | st.characters(), max_size=30).map("".join)
# The same edge cases within ASCII, the text that the lexer splits in ASCII mode.
ascii_lexer_text = st.lists(
    st.sampled_from([p for p in _LEXER_PIECES if p.isascii()]) | st.characters(max_codepoint=0x7F),
    max_size=30,
).map("".join)


def _lexed(scan, source):
    try:
        return scan(source, "probe.tfm")
    except ParseError as exc:
        return str(exc)


@given(lexer_text | ascii_lexer_text)
@example("a<--b -->c\r\n'x' '")
@example("a_1 7b\t'x!y'--z\r!B\x0c\x7f")
@example("x²1 ٣y ½ '\t'..->")
@settings(deadline=None, max_examples=300)
def test_tokenize_matches_the_reference_scanner(source):
    tokens = _lexed(lexed, source)
    assert tokens == _lexed(reference_tokenize, source)


cell = st.text(
    alphabet=st.sampled_from(list("abc|&<>%_{}\\$#~^ ")), max_size=8
)


@given(
    st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\x00"), max_size=20),
    st.integers(min_value=1, max_value=4),
    st.lists(st.lists(cell, min_size=1, max_size=4), max_size=5),
)
@settings(deadline=None)
def test_table_json_round_trip_is_lossless(title, arity, raw_rows):
    rows = tuple(tuple((r + [""] * arity)[:arity]) for r in raw_rows)
    header = tuple(f"h{i}" for i in range(arity))
    table = Table(title, header, rows)
    assert table_from_json(render(table, "json")) == table
    for fmt in ("markdown", "html", "latex"):
        first = render(table, fmt)
        assert first == render(table, fmt)
        assert first.endswith("\n")


# Arbitrary text, and text drawn from the characters the lexer treats
# specially, where blanks, comments and arrows meet far more often.
_LEXICAL = " \t\r\n-<>.'!(;a_1²½é"


@given(st.text() | st.text(alphabet=_LEXICAL))
@example("\ufeff")
@example("\ufeff\ufeff")
@settings(deadline=None)
def test_tokens_tile_the_source(source):
    try:
        ts = TokenStream(source)
    except ParseError:
        return
    # The stream drops one leading byte order mark, and its tokens tile what is left.
    assert ts.source == source.removeprefix("\ufeff")
    source = ts.source
    end = 0
    for i, (text, offset) in enumerate(zip(ts.texts, ts.texts.starts)):
        assert source.startswith(text, offset)
        assert ts.position(i) == reference_position(source, offset)
        # Between two tokens there are only blanks and `--` comments, and
        # CR and LF each end a comment.
        gap = re.split("[\r\n]", source[end:offset])
        for piece in gap[:-1]:
            rest = piece.lstrip(" \t")
            assert rest == "" or rest.startswith("--")
        last = gap[-1].lstrip(" \t")
        assert last == "" or (text == "" and last.startswith("--"))
        end = offset + len(text)
    assert ts.texts.count("") == 1
    assert ts.texts[-1] == ""
    assert ts.texts.starts[-1] == len(source)
    assert len(ts.texts.starts) == len(ts.texts)


# Token spellings of both dialects, so that generated inputs get past the
# first keyword and reach the deeper parse paths.
_WORDS = (
    "metamodel", "class", "abstract", "extends", "attr", "ref", "module",
    "create", "from", "helper", "context", "def", "rule", "lazy", "to",
    "M", "x", "1", "'s'", "'", "{", "}", "(", ")", "[", "]", ";", ":", ",",
    "!", "=", "<-", "..", "-- c\n",
)


@given(st.text() | st.lists(st.sampled_from(_WORDS), max_size=40).map(" ".join))
@settings(deadline=None)
def test_parsers_return_or_raise_parse_error(source):
    for parse in (parse_metamodel, parse_transformation):
        try:
            parse(source)
        except ParseError:
            pass


# File contents: arbitrary bytes, arbitrary text, or a corpus file, so
# that some calls get past parsing into analysis, tables and planning.
_CORPUS_FILES = [p.read_bytes() for p in sorted(CORPUS.iterdir()) if p.suffix in (".cmm", ".tfm")]
_CONTENTS = st.binary() | st.text().map(str.encode) | st.sampled_from(_CORPUS_FILES)
# The real flags and values of every command, plus bad values.
_OPTION_WORDS = (
    "--format", "markdown", "html", "latex", "json", "xml", "--out", "out.txt",
    "--strict", "--initial", "ALL", "Class", "Class,Record", "Spirit", "",
    "--require", "--forbid", "Model", "Forall", "--max-len", "0", "3", "-1", "x",
    "--", "-h", "--strict=1",
)


@given(
    st.sampled_from(sorted(COMMANDS)),
    st.lists(_CONTENTS, min_size=1, max_size=3),
    st.lists(st.sampled_from(_OPTION_WORDS), max_size=6),
)
@settings(deadline=None)
def test_cli_exits_with_a_documented_code(command, contents, option_words):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for i, data in enumerate(contents):
            path = os.path.join(tmp, f"f{i}")
            with open(path, "wb") as fh:
                fh.write(data)
            files.append(path)
        # `--out` may take any word as its path; keep what it writes here.
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                main([command, *files, *option_words])
            code = 0
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
