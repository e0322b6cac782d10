"""The command line's cache of parsed inputs: a warm run prints what a cold run prints.

A hit hands the analysis the plain tuples the entry holds, where a miss
hands it the parsed record; the analysis reads both by position, so both
must give the same reports. Each test's cache lies in a directory of its
own (see conftest.py), so every test starts cold.
"""
from __future__ import annotations

import ast
import inspect
import marshal
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import xformlens
from xformlens import analyzer, cli, metamodel, transformation
from xformlens.metamodel import metamodel_to_plain
from xformlens.report import report_to_json
from xformlens.transformation import transformation_to_plain

from helpers import CORPUS, FIXTURE_NAMES, random_metamodel_text, random_transformation_text, subprocess_env

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

WORKLOADS = ("corpus-cli", "bulk-parse", "wide-metamodel")

METAMODEL = "metamodel M {\n\tclass A {}\n\tclass B {}\n}\n"
# Ghost is no concept of M: lint places that finding at line 4, column 51.
TRANSFORMATION = (
    "module probe;\ncreate OUT : M from IN : M;\n\n"
    "rule A { from s : M!A (s.oclIsTypeOf(M!B)) to t : M!Ghost() }\n"
)


def _run(argv, capsys):
    """(stdout, stderr, exit code) of `main(argv)` in process."""
    try:
        cli.main(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    return (*capsys.readouterr(), code)


def _entries() -> dict[str, tuple]:
    """Each cache entry's path string -> (its file, its key, its stored record)."""
    directory = Path(os.environ["XDG_CACHE_HOME"], "xformlens")
    found = {}
    for entry in sorted(directory.iterdir()) if directory.exists() else ():
        key, record = marshal.loads(entry.read_bytes())
        found[key[2]] = (entry, key, record)
    return found


def _unused(*args, **kwargs):
    raise AssertionError("a warm run parsed an input")


def _probe(directory: Path, transformation: str = TRANSFORMATION) -> list[str]:
    (directory / "probe.cmm").write_text(METAMODEL, encoding="utf-8")
    (directory / "probe.tfm").write_text(transformation, encoding="utf-8")
    return [str(directory / "probe.cmm"), str(directory / "probe.tfm")]


def _plain(record, plain, where="record"):
    """`plain` is `record` field for field, in plain tuples and the value types marshal writes."""
    if isinstance(record, tuple):
        assert type(plain) is tuple and len(plain) == len(record), where
        for i, (x, y) in enumerate(zip(record, plain)):
            _plain(x, y, f"{where}[{i}]")
    else:
        assert type(plain) in (str, int, bool, type(None)) and type(plain) is type(record), where
        assert plain == record, where


def _analyses_agree(mm, ts):
    """`analyze_library` over the records and over their plain tuples, as a cache entry gives them back,
    makes equal reports, and the same lint lines and JSON text."""
    plain_mm = marshal.loads(marshal.dumps(metamodel_to_plain(mm)))
    plain_ts = [marshal.loads(marshal.dumps(transformation_to_plain(t))) for t in ts]
    _plain(mm, plain_mm)
    for t, plain in zip(ts, plain_ts):
        _plain(t, plain, t.source_path or t.name)
    reports = xformlens.analyze_library(ts, mm, mm)
    plain_reports = xformlens.analyze_library(plain_ts, plain_mm, plain_mm)
    assert plain_reports == reports
    for r, p in zip(reports, plain_reports):
        assert analyzer.lint_lines(p.diagnostics, p.transformation) == analyzer.lint_lines(r.diagnostics, r.transformation)
        assert report_to_json(p) == report_to_json(r)


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_warm_run_prints_what_a_cold_run_prints(name, tmp_path, monkeypatch, capsys):
    workload = workloads.build(name, ROOT, 1)
    root = tmp_path if workload.files else ROOT  # corpus-cli's invocations name `fixtures/...`
    workload.write(root)
    monkeypatch.chdir(root)
    analyzed = []  # the types of (metamodel, each transformation) that each run analyzes

    def spy(transformations, source_mm, target_mm):
        transformations = list(transformations)
        analyzed.append((type(source_mm), {type(t) for t in transformations}))
        return xformlens.analyze_library(transformations, source_mm, target_mm)

    monkeypatch.setattr(cli, "analyze_library", spy)
    for i, inv in enumerate(workload.invocations):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache" / str(i)))  # each invocation starts cold
        analyzed.clear()
        cold = _run(inv.args, capsys)
        assert cold == (inv.stdout, "", inv.code), inv.form
        assert len(_entries()) == sum(a.endswith((".cmm", ".tfm")) for a in inv.args)
        with monkeypatch.context() as m:  # so every input must come from the cache
            m.setattr(metamodel, "parse_metamodel", _unused)
            m.setattr(transformation, "parse_transformation", _unused)
            assert _run(inv.args, capsys) == cold, inv.form
        monkeypatch.setenv("XDG_CACHE_HOME", "/dev/null")
        assert _run(inv.args, capsys) == cold, inv.form
        record = (xformlens.Metamodel, {xformlens.Transformation})
        assert analyzed == [record, (tuple, {tuple}), record], inv.form


def _inputs(name, tmp_path):
    """The (path, kind, parser) of every input of a workload at seed 1."""
    workload = workloads.build(name, ROOT, 1)
    if name == "corpus-cli":
        paths = [CORPUS / "pivot.cmm", *(CORPUS / f"{n}.tfm" for n in FIXTURE_NAMES)]
    else:
        workload.write(tmp_path)
        paths = [tmp_path / rel for rel in workload.files]
    for path in paths:
        if path.suffix == ".cmm":
            yield str(path), "metamodel", xformlens.parse_metamodel
        else:
            yield str(path), "transformation", xformlens.parse_transformation


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_hit_returns_the_stored_plain_tuples(name, tmp_path, monkeypatch):
    cache = cli._cache()
    for path, kind, parse in _inputs(name, tmp_path):
        parsed = cli._parsed(path, kind, cache)
        assert type(parsed) is not tuple and parsed == parse(Path(path).read_text(encoding="utf-8"), path=path), path
        stored = _entries()[path][2]
        _plain(parsed, stored, path)
        with monkeypatch.context() as m:
            m.setattr(metamodel, "parse_metamodel", _unused)
            m.setattr(transformation, "parse_transformation", _unused)
            hit = cli._parsed(path, kind, cache)
        _plain(parsed, hit, path)


@pytest.mark.parametrize("name", WORKLOADS)
def test_records_and_their_plain_tuples_analyze_alike(name, tmp_path):
    mm, *ts = [parse(Path(path).read_text(encoding="utf-8"), path=path) for path, _, parse in _inputs(name, tmp_path)]
    _analyses_agree(mm, ts)


def test_to_plain_writes_every_field_of_a_random_record_in_plain_types():
    """And the random library's records and their plain tuples analyze alike."""
    rng = random.Random(3030)
    seen = {"context": 0, "no context": 0, "multiplicity": 0, "lazy": 0, "guard": 0, "abstract": 0, "parent rule": 0}
    for _ in range(200):
        mm = xformlens.parse_metamodel(random_metamodel_text(rng))
        names = list(xformlens.concrete_concepts(mm))
        ts = [xformlens.parse_transformation(random_transformation_text(rng, names, extends=True)) for _ in range(3)]
        _analyses_agree(mm, ts)
        seen["context"] += sum(h.context is not None for t in ts for h in t.helpers)
        seen["no context"] += sum(h.context is None for t in ts for h in t.helpers)
        seen["multiplicity"] += sum(f.multiplicity is not None for c in mm.concepts for f in c.features)
        seen["lazy"] += sum(r.lazy for t in ts for r in t.rules)
        seen["guard"] += sum(r.guard is not None for t in ts for r in t.rules)
        seen["abstract"] += sum(c.abstract for c in mm.concepts)
        seen["parent rule"] += sum(r.parent_rule is not None for t in ts for r in t.rules)
    assert min(seen.values()) >= 10, seen


# Each function that reads an input by position, and every record type it reads.
_READERS = (analyzer.analyze, analyzer.classify_rule, analyzer._facts, metamodel.concrete_concepts,
            metamodel.metamodel_to_plain, transformation.transformation_to_plain)
_RECORDS = (metamodel.Metamodel, metamodel.Concept, metamodel.Feature, transformation.Transformation,
            transformation.Helper, transformation.Rule, transformation.TargetPattern, transformation.Binding,
            transformation.Expression, transformation.ConceptRef)


def _record_reads(target, value):
    """The tuple targets in `target = value` (or `for target in value`) that unpack a named value."""
    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts):
        return [read for t, v in zip(target.elts, value.elts) for read in _record_reads(t, v)]  # a, b = x, y
    return [target] if isinstance(target, ast.Tuple) and isinstance(value, ast.Name) else []


def _spelled(target) -> list:
    """The records whose fields the tuple `target` names in order, with each nested tuple spelling one
    itself: a name is `_`, the field's name, or that name after a prefix and `_`."""
    for e in target.elts:
        if isinstance(e, ast.Tuple):
            assert _spelled(e), ast.unparse(e)
    return [
        r for r in _RECORDS if len(r._fields) == len(target.elts) and all(
            isinstance(e, ast.Tuple) or e.id in ("_", field) or e.id.endswith(f"_{field}")
            for e, field in zip(target.elts, r._fields)
        )
    ]


def test_each_positional_read_names_the_fields_of_its_record():
    """The namedtuples state the layout that the analysis and `*_to_plain` unpack by position: a field
    added or moved in one of them fails here, where a missed unpack would fail only at run time."""
    read = set()
    for fn in _READERS:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        pairs = [(t, n.value) for n in ast.walk(tree) if isinstance(n, ast.Assign) for t in n.targets]
        pairs += [(n.target, n.iter) for n in ast.walk(tree) if isinstance(n, (ast.For, ast.comprehension))]
        reads = [r for t, v in pairs for r in _record_reads(t, v)]
        assert reads, fn.__name__
        for target in reads:
            spelled = _spelled(target)
            assert spelled, f"{fn.__name__}: {ast.unparse(target)} names no record's fields"
            read.update(spelled)
    assert read == set(_RECORDS)


def test_the_stamp_covers_every_module_a_parse_loads():
    """A parsed record depends on no code but the stamp's: in a fresh interpreter, parsing the
    corpus loads exactly the stamped modules of the package."""
    probe = (
        "import sys\nfrom xformlens.metamodel import parse_metamodel\n"
        "from xformlens.transformation import parse_transformation\nfor path in sys.argv[1:]:\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        (parse_metamodel if path.endswith('.cmm') else parse_transformation)(fh.read(), path=path)\n"
        "print(*sorted(m for m in sys.modules if m.startswith('xformlens.')))"
    )
    paths = [str(CORPUS / "pivot.cmm"), *(str(CORPUS / f"{n}.tfm") for n in FIXTURE_NAMES)]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, *paths], capture_output=True, text=True, env=subprocess_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(f"xformlens.{m}" for m in cli._STAMPED)


def test_an_edit_that_keeps_the_size_and_mtime_is_parsed_again(tmp_path, monkeypatch, capsys):
    args = _probe(tmp_path)
    before = os.stat(args[1])
    assert "'M!Ghost'" in _run(["lint", *args], capsys)[0]
    Path(args[1]).write_text(TRANSFORMATION.replace("Ghost", "Ghast"), encoding="utf-8")
    os.utime(args[1], ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(args[1])
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    warm = _run(["lint", *args], capsys)
    assert "'M!Ghast'" in warm[0]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "fresh"))
    assert warm == _run(["lint", *args], capsys)


def test_a_path_spelled_another_way_is_parsed_again(tmp_path, monkeypatch, capsys):
    _probe(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run(["lint", "probe.cmm", "probe.tfm"], capsys)[0].startswith("probe.tfm:4:51: ")
    warm = _run(["lint", "./probe.cmm", "./probe.tfm"], capsys)
    assert warm[0].startswith("./probe.tfm:4:51: ")
    assert len(_entries()) == 2  # one entry per file, whatever its spelling


def _damaged(key, record, data, other):
    """Each way an entry can be damaged or foreign: `other` is the record of another text."""
    stamp, kind, path, text = key
    rule = record[4][0]
    return {
        "truncated": data[: len(data) // 2],
        "garbage": b"\xffgarbage",
        "not a pair": marshal.dumps(42),
        "a record too short": marshal.dumps((key, record[:3])),
        "an expression too short": marshal.dumps((key, (*record[:4], ((*rule[:4], ("raw",), *rule[5:]),), record[5]))),
        "another stamp": marshal.dumps(((("other",), kind, path, text), other)),
        "another kind": marshal.dumps(((stamp, "metamodel", path, text), other)),
        "another path": marshal.dumps(((stamp, kind, path + "x", text), other)),
        "another text": marshal.dumps(((stamp, kind, path, text + " "), other)),
    }


def test_a_damaged_or_foreign_entry_is_a_miss(tmp_path, capsys):
    # A key names the code that wrote its entry, so a well-formed entry under a matching key is used
    # as it is; one that the analysis cannot unpack has every input of the command parsed again.
    args = _probe(tmp_path)
    cold = _run(["lint", *args], capsys)
    entry, key, record = _entries()[args[1]]
    # A clean record of another text, whose lint differs: a hit would print it.
    other = transformation_to_plain(xformlens.parse_transformation(TRANSFORMATION.replace("Ghost", "B"), path=args[1]))
    for damage, data in _damaged(key, record, entry.read_bytes(), other).items():
        entry.write_bytes(data)
        assert _run(["lint", *args], capsys) == cold, damage
        assert _entries()[args[1]][1:] == (key, record), damage  # written again


@pytest.mark.parametrize("damage", ["no concepts", "a concept too short"])
def test_a_metamodel_entry_that_does_not_unpack_is_parsed_again(damage, tmp_path, capsys):
    args = _probe(tmp_path)
    cold = _run(["chain-check", *args], capsys)
    entry, key, record = _entries()[args[0]]
    name, concepts = record
    bad = (name,) if damage == "no concepts" else (name, (concepts[0][:2], *concepts[1:]))
    entry.write_bytes(marshal.dumps((key, bad)))
    assert _run(["chain-check", *args], capsys) == cold
    assert _entries()[args[0]][1:] == (key, record)  # written again


def _child(args, cache):
    env = dict(subprocess_env(), XDG_CACHE_HOME=cache)
    proc = subprocess.run([sys.executable, "-m", "xformlens", "lint", *args], capture_output=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("where", ["/dev/null", "a file", "a read-only directory"])
def test_an_unwritable_cache_is_no_cache(where, tmp_path):
    args = _probe(tmp_path)
    writable = str(tmp_path / "writable")
    expected = _child(args, writable)
    assert expected[0] == 0 and expected[2] == b""
    assert len(list(Path(writable, "xformlens").iterdir())) == 2  # the child keeps its inputs
    cache = tmp_path / "cache"
    cache.mkdir()
    if where == "/dev/null":
        cache = Path(where)
    elif where == "a file":
        (cache / "xformlens").write_text("", encoding="utf-8")
    else:
        cache.chmod(0o555)  # the super-user writes it all the same
    try:
        assert _child(args, str(cache)) == expected
        assert _child(args, str(cache)) == expected
    finally:
        if where == "a read-only directory":
            cache.chmod(0o755)


def test_a_failed_write_leaves_no_file_behind(tmp_path, capsys):
    """A full disk, here /dev/full under each temporary file's name, leaves neither an entry nor
    the temporary file that it was being written to."""
    args = _probe(tmp_path)
    cold = _run(["lint", *args], capsys)
    entries = [entry for entry, _, _ in _entries().values()]
    for entry in entries:
        entry.unlink()
        Path(f"{entry}.{os.getpid()}").symlink_to("/dev/full")  # every write to it fails with ENOSPC
    assert _run(["lint", *args], capsys) == cold
    assert list(entries[0].parent.iterdir()) == []


@pytest.mark.parametrize("xdg", [None, "", "relative"])
def test_without_an_absolute_xdg_cache_home_the_cache_lies_under_home(xdg, tmp_path, monkeypatch, capsys):
    args = _probe(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    cold = _run(["lint", *args], capsys)
    assert len(list((tmp_path / "home" / ".cache" / "xformlens").iterdir())) == 2
    monkeypatch.setenv("HOME", "elsewhere")  # no absolute home: no cache
    assert _run(["lint", *args], capsys) == cold
    assert sorted(p.name for p in tmp_path.iterdir()) == ["home", "probe.cmm", "probe.tfm"]


def test_an_input_that_fails_to_parse_leaves_no_entry(tmp_path, capsys):
    args = _probe(tmp_path, TRANSFORMATION.replace("M!Ghost()", "M!Ghost("))
    first = _run(["lint", *args], capsys)
    assert first[1].startswith(f"error: {args[1]}:4:") and first[2] == 1
    assert list(_entries()) == [args[0]]  # the metamodel's
    assert _run(["lint", *args], capsys) == first
    assert list(_entries()) == [args[0]]


def test_the_python_api_keeps_no_cache(pivot, transformations):
    for path in (CORPUS / "pivot.cmm", *(CORPUS / f"{n}.tfm" for n in FIXTURE_NAMES)):
        parse = xformlens.parse_metamodel if path.suffix == ".cmm" else xformlens.parse_transformation
        parse(path.read_text(encoding="utf-8"), path=str(path))
    reports = [xformlens.analyze(t, pivot, pivot) for t in transformations]
    xformlens.render(xformlens.ignored_table(reports), "markdown")
    xformlens.report_to_json(reports[0])
    xformlens.plan_chain(reports, {"Class"}, (), {"Class"})
    assert not Path(os.environ["XDG_CACHE_HOME"]).exists()
