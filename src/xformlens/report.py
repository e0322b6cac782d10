"""Rendering pipeline: analysis reports -> generic tables -> text surfaces.

Every table goes through the Table model first, so its Markdown, HTML,
LaTeX and JSON renders stay consistent with each other. `analyze --format
json` is the exception: report_to_json writes each report's JSON directly. report_texts makes
the `analyze` output one report at a time, to be written as it comes. Concept lists are always
ordered by metamodel declaration order.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import chain, islice

from .analyzer import AnalysisReport, Mode, lint_lines
from .metamodel import declaration_order

# Table labels of the modes, in display order: the rarest mode comes
# first, as in "lazily, cond.".
_MODE_LABELS = {Mode.LAZILY: "lazily", Mode.CONDITIONALLY: "cond.", Mode.ALWAYS: "always"}


class Table(namedtuple("Table", "title header rows", defaults=((),))):
    """A titled grid whose rows all have the header's arity, checked when built.

    `title` is a str, `header` a tuple[str, ...] and `rows` a tuple of such tuples.
    """

    __slots__ = ()

    def __new__(cls, title, header, rows=()):
        if not set(map(len, rows)) <= {len(header)}:
            bad = next(filter(len(header).__ne__, map(len, rows)))  # the first wrong arity
            raise ValueError(f"row arity {bad} does not match header arity {len(header)}")
        return super().__new__(cls, title, header, rows)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the arity too
        return cls(*iterable)


# copy_modes, mutation_modes: frozenset[Mode]; concepts: tuple[str, ...]; rendered_label: str
ProfileGroup = namedtuple("ProfileGroup", "copy_modes mutation_modes concepts rendered_label")


def mode_set_label(modes: frozenset[Mode]) -> str:
    return ", ".join(label for m, label in _MODE_LABELS.items() if m in modes) or "never"


def _group_key(g: ProfileGroup) -> tuple[int, str]:
    """Fewer copy modes first, then by label: no label of a copy-mode set
    is a prefix of another of its size, so the copy label decides first."""
    return len(g.copy_modes), g.rendered_label


def profile_groups(report: AnalysisReport) -> tuple[ProfileGroup, ...]:
    """Group the refined domain by (copy_modes, mutation_modes).

    Concepts outside the refined domain are already reported in the
    ignored table and get no group here.
    """
    buckets: dict[tuple[frozenset[Mode], frozenset[Mode]], list[str]] = {}
    for c, p in report.profiles.items():
        if c in report.refined_domain:
            buckets.setdefault((p.copy_modes, p.mutation_modes), []).append(c)
    groups = [
        ProfileGroup(cm, mm, tuple(cs), f"Copy: {mode_set_label(cm)} / Mutation: {mode_set_label(mm)}")
        for (cm, mm), cs in buckets.items()
    ]
    groups.sort(key=_group_key)
    return tuple(groups)


def _concept_lists(report: AnalysisReport) -> Iterator[tuple[str, list[str]]]:
    """The report's four concept sets as (field, names) pairs in field order,
    each listed lazily in its own metamodel's declaration order."""
    src, tgt = report.profiles, report.target_concepts
    universes = (("ignored_in", src), ("ignored_out", tgt), ("refined_domain", src), ("refined_codomain", tgt))
    return ((field, declaration_order(getattr(report, field), universe)) for field, universe in universes)


def ignored_table(reports: Sequence[AnalysisReport]) -> Table:
    rows = tuple((r.transformation, *(", ".join(names) for _, names in islice(_concept_lists(r), 2))) for r in reports)
    return Table(
        "Ignored metaelements",
        ("Transformation", "Ignored in metaelements", "Ignored out metaelements"),
        rows,
    )


def referenced_table(reports: Sequence[AnalysisReport]) -> Table:
    """One column per distinct profile pair, one row per transformation.

    A pair is known by its group's rendered label. In each row the unique
    largest group collapses to "ALL OTHER"; on a size tie every group is
    listed explicitly. Pairs absent from a row render as "NONE".
    """
    per_report = [profile_groups(r) for r in reports]
    columns = {g.rendered_label: g for groups in per_report for g in groups}
    labels = sorted(columns, key=lambda label: _group_key(columns[label]))

    rows = []
    for r, groups in zip(reports, per_report):
        cells = {g.rendered_label: ", ".join(g.concepts) for g in groups}
        largest = max((len(g.concepts) for g in groups), default=0)
        top = [g.rendered_label for g in groups if len(g.concepts) == largest]
        if len(top) == 1:
            cells[top[0]] = "ALL OTHER"
        rows.append((r.transformation, *(cells.get(label, "NONE") for label in labels)))
    return Table("Referenced metaelements", ("Transformation", *labels), tuple(rows))


def report_table(report: AnalysisReport) -> Table:
    """Per-transformation summary table, diagnostics included."""
    rows = [
        ("source metamodel", report.source_mm),
        ("target metamodel", report.target_mm),
        *((field.replace("_", " "), ", ".join(names)) for field, names in _concept_lists(report)),
        ("fixed point candidate", "yes" if report.fixed_point_candidate else "no"),
    ]
    rows += [("diagnostic", line) for line in lint_lines(report.diagnostics)]
    return Table(f"report: {report.transformation}", ("field", "value"), tuple(rows))


def _render_markdown(table: Table) -> str:
    rows = (table.header, ("---",) * len(table.header), *table.rows)
    text = " |\n| ".join(map(" | ".join, rows))
    if text.count("|") > len(rows) * (len(table.header) + 1) - 2:  # more pipes than separators: escape the cells'
        text = " |\n| ".join(" | ".join(c.replace("|", "\\|") for c in r) for r in rows)
    return f"### {table.title}\n\n| {text} |\n"


def _render_html(table: Table) -> str:
    import html  # here, like json below, to keep it off the CLI's start-up path

    def row(cells: tuple[str, ...], tag: str) -> str:
        return "<tr>" + "".join(f"<{tag}>{html.escape(c)}</{tag}>" for c in cells) + "</tr>"

    lines = [
        f"<h3>{html.escape(table.title)}</h3>",
        "<table>",
        "<thead>",
        row(table.header, "th"),
        "</thead>",
        "<tbody>",
    ]
    lines.extend(row(r, "td") for r in table.rows)
    lines.extend(["</tbody>", "</table>"])
    return "\n".join(lines) + "\n"


_LATEX_ESCAPES = str.maketrans({
    "\\": r"\textbackslash{}",
    "&": r"\&",
    "%": r"\%",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
})


def _render_latex(table: Table) -> str:
    def row(cells: tuple[str, ...]) -> str:
        return "&".join(c.translate(_LATEX_ESCAPES) for c in cells) + "\\\\"

    spec = "|" + "c|" * len(table.header)
    lines = [
        f"% {table.title.translate(_LATEX_ESCAPES)}",
        f"\\begin{{tabular}}{{{spec}}}",
        "\\hline",
        row(table.header),
        "\\hline",
    ]
    for r in table.rows:
        lines.append(row(r))
        lines.append("\\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def _render_json(table: Table) -> str:
    import json
    return json.dumps(table._asdict(), indent=2) + "\n"  # tuples encode as arrays


_RENDERERS = {"markdown": _render_markdown, "html": _render_html, "latex": _render_latex, "json": _render_json}
FORMATS = tuple(_RENDERERS)


def render(table: Table, fmt: str) -> str:
    renderer = _RENDERERS.get(fmt)
    if renderer is None:
        raise ValueError(f"unknown format '{fmt}' (expected one of {', '.join(FORMATS)})")
    return renderer(table)


def report_texts(reports: Sequence[AnalysisReport], fmt: str) -> Iterator[str]:
    """The `analyze` output as texts to write in turn, each report's made when it is reached: a JSON
    array, or the ignored and referenced tables then one table per report, apart by blank lines."""
    if fmt == "json":
        texts = {}  # the diagnostics' texts, which the reports mostly share
        for i, r in enumerate(reports):
            yield from (",\n  " if i else "[\n  ", report_to_json(r, "  ", texts))
        yield "\n]\n" if reports else "[]\n"
        return
    yield render(ignored_table(reports), fmt)
    for table in chain([referenced_table(reports)], map(report_table, reports)):  # each made when reached
        yield from ("\n", render(table, fmt))


def render_reports(reports: Sequence[AnalysisReport], fmt: str) -> str:
    """The `analyze` output as one string: report_texts joined."""
    return "".join(report_texts(reports, fmt))


def table_from_json(text: str) -> Table:
    """Inverse of render(..., "json"); raises ValueError on bad input."""
    import json
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("table JSON must be an object")
    for key in Table._fields:
        if key not in data:
            raise ValueError(f"table JSON lacks key '{key}'")
    title, header, rows = (data[key] for key in Table._fields)
    if not isinstance(title, str):
        raise ValueError("table title must be a string")
    if not isinstance(header, list) or not all(isinstance(h, str) for h in header):
        raise ValueError("table header must be a list of strings")
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(isinstance(c, str) for c in r) for r in rows
    ):
        raise ValueError("table rows must be lists of strings")
    return Table(title, tuple(header), tuple(tuple(r) for r in rows))


def _json_array(items: list[str], indent: str) -> list[str]:
    """An array of encoded items as parts to join, laid out as json.dumps(..., indent=2) does at `indent`."""
    if not items:
        return ["[]"]
    parts = [f",\n{indent}  "] * (2 * len(items)) + [f"\n{indent}]"]  # each item after its separator
    parts[0], parts[1:-1:2] = f"[\n{indent}  ", items  # the first after "["
    return parts


def report_to_json(report: AnalysisReport, indent: str = "", texts: dict | None = None) -> str:
    """The report's JSON text in the documented shape, byte for byte as json.dumps(..., indent=2) lays
    it out with every line after the first prefixed by `indent`, its depth in an enclosing array;
    json.loads gives the dict. The text is one join of a flat list of parts, each profile and diagnostic one.

    A dict `texts` keeps the text of each diagnostic, keyed by the whole Lint, for later calls at the
    same `indent`: the reports of a library mostly repeat each other's diagnostics. None keeps them for this call."""
    try:  # json.dumps's escaper under ensure_ascii, from the C module it calls: json.encoder
        from _json import encode_basestring_ascii as q  # would also load the decoder and compile its regexes
    except ImportError:  # an interpreter without that C module
        from json.encoder import encode_basestring_ascii as q

    i1, i2, i3 = indent + "  ", indent + "    ", indent + "      "

    def strings(names: list[str], at: str) -> str:  # short items: one part for the array, not one each
        return f"[\n{at}  " + f",\n{at}  ".join([q(n) for n in names]) + f"\n{at}]" if names else "[]"

    def modes(values: frozenset[Mode]) -> str:
        return strings([m.value for m in Mode if m in values], i3)

    # A profile entry's fields after its concept, written once per distinct profile.
    tails = {
        p: f'"copy_modes": {modes(p.copy_modes)},\n{i3}"mutation_modes": {modes(p.mutation_modes)},\n'
        f'{i3}"produced_as": {strings(declaration_order(p.produced_as, report.target_concepts), i3)}'
        for p in set(report.profiles.values())
    }
    profiles = [f'{{\n{i3}"concept": {q(c)},\n{i3}{tails[p]}\n{i2}}}' for c, p in report.profiles.items()]
    texts = {} if texts is None else texts  # not `texts or {}`: a caller's dict starts empty
    get, keep = texts.get, texts.setdefault  # no kept text is empty, so `get(d) or keep(d, text)` writes the missing ones
    # A diagnostic's fields in Lint's order; a position field only when known.
    diagnostics = [
        get(d) or keep(d, f'{{\n{i3}"kind": {q(kind)},\n{i3}"subject": {q(subject)},\n{i3}"message": {q(message)}'
        + ("" if file is None else f',\n{i3}"file": {q(file)}')
        + ("" if line is None else f',\n{i3}"line": {line}')
        + ("" if column is None else f',\n{i3}"column": {column}')
        + f"\n{i2}}}")
        for d in report.diagnostics
        for kind, subject, message, file, line, column in (d,)
    ]
    parts = [f'{{\n{i1}"transformation": {q(report.transformation)},\n{i1}"source_mm": {q(report.source_mm)},'
             f'\n{i1}"target_mm": {q(report.target_mm)}']
    for field, names in _concept_lists(report):
        parts += (f',\n{i1}"{field}": ', strings(names, i1))
    fixed = "true" if report.fixed_point_candidate else "false"
    parts += (f',\n{i1}"fixed_point_candidate": {fixed},\n{i1}"profiles": ', *_json_array(profiles, i1),
              f',\n{i1}"diagnostics": ', *_json_array(diagnostics, i1), f"\n{indent}}}")
    return "".join(parts)
