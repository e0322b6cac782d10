"""Command line interface.

Exit codes: 0 success, 1 usage, parse or I/O error, 2 strict run with
unknown_concept diagnostics, 3 no chain plan found.
"""
from __future__ import annotations

import codecs
import io
import marshal
import os
import sys

from .analyzer import MetamodelMismatchError, analyze_library, lint_lines
from .metamodel import Metamodel, ParseError, concrete_concepts, declaration_order, one_line

# `report` and `chain`, which write the commands' text, are imported by the commands that run them, and
# `transformation`, `parse` and `lexer` on a cache miss, so that no command pays for a layer it never calls.

# Each lint kind as XFORMLENS_COLOR=1 shows it.
_PAINTED = {
    kind: f"\x1b[{color}m{kind}\x1b[0m"
    for kind, color in (("unknown_concept", 31), ("never_processed", 33), ("ignored_in", 36), ("ignored_out", 36))
}


def _bytes_or_escape(exc: UnicodeEncodeError) -> tuple[bytes, int]:
    """Write a file name's undecodable byte as itself, any other unencodable character as an escape."""
    ch = exc.object[exc.start]
    raw = ord(ch) - 0xDC00  # surrogateescape carries byte 0x80-0xFF as U+DC80-U+DCFF
    return (bytes([raw]) if 0x80 <= raw <= 0xFF else ch.encode("ascii", "backslashreplace")), exc.start + 1


def _fail(message: str, code: int):
    print(f"error: {one_line(message)}", file=sys.stderr)
    raise SystemExit(code)


def _read(path: str) -> str:
    try:  # "utf-8", not "utf-8-sig", which shifts the byte offset below; the lexer drops a BOM
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        _fail(f"{path}: not valid UTF-8 at byte {exc.start}", 1)


# Names an entry by its path. zlib.crc32 would do as well, but importing zlib adds about
# 0.7 ms to each start (x86-64, 2 vCPUs), more than a small library's warm parse saves.
_PRIME = 2**64 - 59
_FORMAT = 2  # raise it when `_parsed` stores an entry another way
_STAMPED = ("lexer", "metamodel", "parse", "transformation")  # every module a parse loads: its code makes the record


def _cache() -> tuple[str, tuple] | None:
    """The cache directory, and the stamp of the code that a parsed record depends on besides its
    path and text: as CPython checks a .pyc, the mtime and size of each source file stand for it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.expanduser(os.path.join("~", ".cache"))
        if not os.path.isabs(base):  # no home directory to put it in
            return None
    here = os.path.dirname(__file__)
    try:
        stats = [os.stat(os.path.join(here, f"{m}.py")) for m in _STAMPED]
    except OSError:  # no source files, as in a zip archive
        return None
    stamp = (sys.implementation.cache_tag, _FORMAT, *[(s.st_mtime_ns, s.st_size) for s in stats])
    return os.path.join(base, "xformlens"), stamp


def _parsed(path: str, kind: str, cache, reuse: bool = True):
    """`parse_<kind>(text, path=path)` of the file at `path`, from the record module `kind`. It is kept
    in `cache` (from `_cache`) as the plain tuples that the module's `<kind>_to_plain` writes, while the
    path string, the text and the parser's code stay the same. A hit returns those tuples as they are,
    since the analysis reads a record and its plain tuple alike; a miss, or any call with `reuse` false,
    parses the file and returns the record."""
    text = _read(path)
    if cache is not None:
        directory, stamp = cache
        key = (stamp, kind, path, text)
        # Two paths whose names share a hash take turns in one entry, each a miss for the other.
        entry = os.path.join(directory, "%016x" % (int.from_bytes(os.fsencode(os.path.abspath(path)), "big") % _PRIME))
        try:
            with open(entry, "rb") as fh:
                stored, plain = marshal.loads(fh.read())
            if stored == key and reuse:
                return plain
        except (OSError, EOFError, ValueError, TypeError):  # missing, short, corrupt or foreign
            pass
    # Loaded on a miss only, and its parse function looked up now, so that a wrapper put on it is called.
    records = __import__(f"{__package__}.{kind}", fromlist=[f"parse_{kind}"])
    record = getattr(records, f"parse_{kind}")(text, path=path)  # a ParseError leaves no entry
    if cache is None:
        return record
    temporary = f"{entry}.{os.getpid()}"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(temporary, "wb") as fh:
            fh.write(marshal.dumps((key, getattr(records, f"{kind}_to_plain")(record))))
        os.replace(temporary, entry)  # a reader sees a whole entry or none
    except OSError:  # an unwritable cache is no cache
        try:  # and keeps no part-written entry, as a full disk leaves
            os.unlink(temporary)
        except OSError:
            pass
    return record


def _analyze_all(metamodel_path: str, transformation_paths: tuple[str, ...]):
    cache = _cache()
    for reuse in (cache is not None, False):
        try:
            mm = _parsed(metamodel_path, "metamodel", cache, reuse)
            # Lazily, so that each file is parsed just before it is analyzed: the first bad file
            # in argument order is reported.
            transformations = (_parsed(p, "transformation", cache, reuse) for p in transformation_paths)
            return mm, analyze_library(transformations, mm, mm)
        except (ValueError, TypeError, IndexError) as exc:
            # An entry under a matching key that does not unpack, which only a writer of another layout
            # makes: every input is parsed again, and a second failure is the analysis's own.
            if not reuse or isinstance(exc, MetamodelMismatchError):
                raise


def _concept_set(spec: str, mm: Metamodel, option: str) -> frozenset[str]:
    concrete = frozenset(concrete_concepts(mm))
    if spec.strip() == "ALL":
        return concrete
    names = [name for name in (raw.strip() for raw in spec.split(",")) if name]
    if not names:
        _fail(f"{option} names no concept", 1)
    for name in names:
        if name not in concrete:
            _fail(f"'{name}' is not a concrete concept of metamodel '{mm[0]}'", 1)  # `mm` may be plain: by position
    return frozenset(names)


class _ClosedStdout(io.TextIOBase):  # sys.stdout when fd 1 is closed, where Python leaves None
    def write(self, text: str) -> int:
        raise OSError("stdout is closed")


def _write_all(stream, texts) -> None:
    """Write each of `texts` to `stream` as it comes, encoded on its own, then flush. Unbuffered,
    `stream.buffer` is the raw file, which may take only part of a write; the text layer would drop the rest."""
    raw = getattr(stream, "buffer", None)
    for text in texts:
        if raw is None:  # a text-only stream, such as io.StringIO or a closed stdout
            stream.write(text)
            continue
        data = memoryview(text.encode(stream.encoding, stream.errors))
        while data:
            taken = raw.write(data)
            if taken is None:  # a non-blocking file that is full: trying again would spin
                raise BlockingIOError("stdout would block")
            data = data[taken:]
        del text, data  # so that the next text is made with this one's text and bytes gone
    stream.flush()


COMMANDS: dict[str, tuple] = {}  # name -> (function, its options' table)
# flag -> (dest, kind, default, help). A kind is "switch", "value", "values" (repeatable),
# "int", or the tuple of the values the option accepts.
_OPTIONS = {
    "--format": ("fmt", ("markdown", "html", "latex", "json"), "markdown", "Output format (default: markdown)."),
    "--out": ("out_path", "value", None, "Write to this file instead of stdout."),
    "--strict": ("strict", "switch", False, "Exit 2 when any unknown_concept diagnostic fires."),
    "--initial": ("initial_spec", "value", "ALL", "Comma-separated concrete concepts, or ALL (the default)."),
    "--require": ("require", "values", (), "Concepts the final set must contain."),
    "--forbid": ("forbid", "values", (), "Concepts the final set must not contain."),
    "--max-len": ("max_len", "int", 8, "Maximum chain length (default: 8)."),
}


def _command(name: str, *flags: str):
    """Register a command taking a metamodel path, transformation paths and the options `flags`. Having analyzed
    every input, it returns its stdout as texts, each made when `main` takes it to write, and its exit code."""
    def register(fn):
        COMMANDS[name] = (fn, {flag: _OPTIONS[flag] for flag in flags})
        return fn
    return register


def _is_option(word: str) -> bool:
    """A dash and more is an option, as argparse has it, unless it is a negative integer or holds a blank."""
    return word[:1] == "-" and word != "-" and not word[1:].isdecimal() and " " not in word


def _help(usage: str, doc: str, heading: str, rows) -> str:
    lines = [f"usage: xformlens {usage} [-h] [options] METAMODEL TRANSFORMATION...", "", doc, "", f"{heading}:"]
    lines += [f"  {left:<20}  {right}" if len(left) <= 20 else f"  {left}\n{'':24}{right}" for left, right in rows]
    return "\n".join(lines) + "\n"


def _parse_and_run(argv: list[str]) -> tuple:
    """Run the command that `argv` names, or return the help it asks for, as (stdout texts, exit code).
    Options are spelled in full, as `--opt value` or `--opt=value`, anywhere among the paths until `--`."""
    name = argv[0] if argv else ""
    if name not in COMMANDS:
        if name in ("-h", "--help"):
            return [_help("COMMAND", main.__doc__, "commands", [(n, fn.__doc__) for n, (fn, _) in COMMANDS.items()])], 0
        what = f"unknown {'option' if _is_option(name) else 'command'} '{name}'" if argv else "no command"
        _fail(f"{what} (choose from {', '.join(COMMANDS)})", 1)
    fn, table = COMMANDS[name]
    args = {dest: default for dest, _, default, _ in table.values()}
    paths = []
    words = iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        if word == "--":
            paths.extend(words)
        elif word in ("-h", "--help"):
            rows = [("-h, --help", "Show this help and exit.")]
            for option, (_, kind, _, text) in table.items():
                meta = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else option[2:].upper()
                rows.append((option if kind == "switch" else f"{option} {meta}", text))
            return [_help(name, fn.__doc__, "options", rows)], 0
        elif flag not in table:
            if _is_option(word):
                _fail(f"unknown option '{word}' (put '--' before a path that starts with '-')", 1)
            paths.append(word)
        else:
            dest, kind, _, _ = table[flag]
            if kind == "switch":
                if eq:
                    _fail(f"{flag} takes no value", 1)
                value = True
            elif not eq:
                value = next(words, None)
                if value is None or _is_option(value):
                    _fail(f"{flag} needs a value", 1)
            if kind == "int":
                try:
                    value = int(value)
                except ValueError:
                    _fail(f"{flag} takes an integer, not '{value}'", 1)
                if value < 0:
                    _fail(f"{flag} must be at least 0", 1)
            elif isinstance(kind, tuple) and value not in kind:
                _fail(f"{flag} takes one of {', '.join(kind)}, not '{value}'", 1)
            args[dest] = (*args[dest], value) if kind == "values" else value
    if len(paths) < 2:
        _fail(f"{name} takes a metamodel path and at least one transformation path", 1)
    return fn(paths[0], paths[1:], **args)


def main(argv: list[str] | None = None) -> None:
    """Static analyzer for rule-based model transformations."""
    argv = sys.argv[1:] if argv is None else argv
    codecs.register_error("xformlens.bytes", _bytes_or_escape)
    for stream in (sys.stdout, sys.stderr):  # one spelling of a file name on both streams
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors="xformlens.bytes")
    if sys.stdout is None:  # fd 1 is closed: writing fails like any other write
        sys.stdout = _ClosedStdout()
    try:
        texts, code = _parse_and_run(argv)
        _write_all(sys.stdout, texts)
    except (OSError, ParseError, MetamodelMismatchError) as exc:  # every input and I/O failure ends here
        try:  # a failed write stays in stdout's buffer, so flushing it fails again
            sys.stdout.flush()
        except OSError:
            # Stdout is the stream that failed: point it at devnull so that the flush at
            # exit cannot fail again (the "Note on SIGPIPE" in the `signal` docs).
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader that has gone needs no message
            _fail(str(exc), 1)
        code = 1
    if code:
        raise SystemExit(code)


@_command("analyze", "--format", "--out", "--strict")
def analyze(metamodel_path, transformation_paths, fmt, out_path, strict):
    """Analyze transformations and render ignored/referenced tables."""
    from .report import report_texts

    mm, reports = _analyze_all(metamodel_path, transformation_paths)
    texts = report_texts(reports, fmt)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", errors="surrogateescape") as fh:
            _write_all(fh, texts)
        texts = ()
    return texts, 2 if strict and any(d.kind == "unknown_concept" for r in reports for d in r.diagnostics) else 0


@_command("lint", "--strict")
def lint(metamodel_path, transformation_paths, strict):
    """List diagnostics, one line each; print 'no findings' when clean."""
    mm, reports = _analyze_all(metamodel_path, transformation_paths)
    kinds = _PAINTED if os.environ.get("XFORMLENS_COLOR") == "1" else {}
    texts = ("\n".join([*lint_lines(r.diagnostics, r.transformation, kinds), ""]) for r in reports if r.diagnostics)
    unknown = strict and any(d.kind == "unknown_concept" for r in reports for d in r.diagnostics)
    return texts if any(r.diagnostics for r in reports) else ["no findings\n"], 2 if unknown else 0


@_command("chain-check", "--initial")
def chain_check(metamodel_path, transformation_paths, initial_spec):
    """Validate an ordered chain of transformations step by step."""
    from .chain import chain_text, check_chain

    mm, reports = _analyze_all(metamodel_path, transformation_paths)
    plan = check_chain(_concept_set(initial_spec, mm, "--initial"), reports)
    return [chain_text(plan, concrete_concepts(mm), verdicts=True)], 0


@_command("chain-plan", "--initial", "--require", "--forbid", "--max-len")
def chain_plan(metamodel_path, transformation_paths, initial_spec, require, forbid, max_len):
    """Find a shortest transformation chain meeting the goal, or exit 3."""
    from .chain import chain_text, plan_chain

    mm, reports = _analyze_all(metamodel_path, transformation_paths)
    # Plan steps are named by module, so the names must tell the files apart.
    seen: dict[str, str] = {}
    for path, r in zip(transformation_paths, reports):
        if r.transformation in seen:
            _fail(f"duplicate transformation name '{r.transformation}': {seen[r.transformation]} and {path}", 1)
        seen[r.transformation] = path
    initial = _concept_set(initial_spec, mm, "--initial")
    required = frozenset().union(*(_concept_set(s, mm, "--require") for s in require))
    forbidden = frozenset().union(*(_concept_set(s, mm, "--forbid") for s in forbid))
    overlap = required & forbidden
    if overlap:
        _fail(f"--require and --forbid overlap: {', '.join(declaration_order(overlap, concrete_concepts(mm)))}", 1)
    plan = plan_chain(reports, initial, required, forbidden, max_len)
    return [chain_text(plan, concrete_concepts(mm), verdicts=False)], 3 if plan is None else 0
