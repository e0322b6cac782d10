"""Command line interface.

Exit codes: 0 success, 1 parse or I/O error, 2 strict run with
unknown_concept diagnostics, 3 no chain plan found.
"""
from __future__ import annotations

import json
import os
import sys

import click

from .analyzer import MetamodelMismatchError, analyze as run_analysis
from .chain import check_chain, plan_chain
from .lexer import ParseError
from .metamodel import Metamodel, concrete_concepts, declaration_order, parse_metamodel
from .report import (
    FORMATS,
    ignored_table,
    lint_text,
    referenced_table,
    render,
    report_table,
    report_to_json,
)
from .transformation import parse_transformation

_KIND_COLORS = {
    "unknown_concept": "31",
    "never_processed": "33",
    "ignored_in": "36",
    "ignored_out": "36",
}


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


def _read(path: str) -> str:
    # Files are opened by hand so a missing path is a normal I/O error
    # (exit 1), not an argument-validation error.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _fail(str(exc), 1)
    except UnicodeDecodeError as exc:
        _fail(f"{path}: not valid UTF-8 at byte {exc.start}", 1)


def _analyze_all(metamodel_path: str, transformation_paths: tuple[str, ...]):
    try:
        mm = parse_metamodel(_read(metamodel_path), path=metamodel_path)
    except ParseError as exc:
        _fail(str(exc), 1)
    reports = []
    for path in transformation_paths:
        try:
            t = parse_transformation(_read(path), path=path)
            reports.append(run_analysis(t, mm, mm))
        except (ParseError, MetamodelMismatchError) as exc:
            _fail(str(exc), 1)
    return mm, reports


def _concept_set(spec: str, mm: Metamodel) -> frozenset[str]:
    concrete = frozenset(concrete_concepts(mm))
    if spec == "ALL":
        return concrete
    chosen = set()
    for raw in spec.split(","):
        name = raw.strip()
        if not name:
            continue
        if name not in concrete:
            _fail(f"'{name}' is not a concrete concept of metamodel '{mm.name}'", 1)
        chosen.add(name)
    return frozenset(chosen)


def _set_text(s: frozenset[str], mm: Metamodel) -> str:
    return ", ".join(declaration_order(concrete_concepts(mm))(s))


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(str(exc), 1)


def _paint(kind: str) -> str:
    if os.environ.get("XFORMLENS_COLOR") == "1":
        return f"\x1b[{_KIND_COLORS.get(kind, '0')}m{kind}\x1b[0m"
    return kind


@click.group()
def main():
    """Static analyzer for rule-based model transformations."""


@main.command()
@click.argument("metamodel_path")
@click.argument("transformation_paths", nargs=-1, required=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(FORMATS),
    default="markdown",
    show_default=True,
    help="Output format for the tables and per-transformation reports.",
)
@click.option("--out", "out_path", default=None, help="Write to this file instead of stdout.")
@click.option("--strict", is_flag=True, help="Exit 2 when any unknown_concept diagnostic fires.")
def analyze(metamodel_path, transformation_paths, fmt, out_path, strict):
    """Analyze transformations and render ignored/referenced tables."""
    mm, reports = _analyze_all(metamodel_path, transformation_paths)
    if fmt == "json":
        text = json.dumps([report_to_json(r) for r in reports], indent=2) + "\n"
    else:
        parts = [render(ignored_table(reports), fmt), render(referenced_table(reports), fmt)]
        parts.extend(render(report_table(r), fmt) for r in reports)
        text = "\n".join(parts)
    _write_out(text, out_path)
    if strict and any(
        d.kind == "unknown_concept" for r in reports for d in r.diagnostics
    ):
        raise SystemExit(2)


@main.command()
@click.argument("metamodel_path")
@click.argument("transformation_paths", nargs=-1, required=True)
@click.option("--strict", is_flag=True, help="Exit 2 when any unknown_concept diagnostic fires.")
def lint(metamodel_path, transformation_paths, strict):
    """List diagnostics, one line each; print 'no findings' when clean."""
    mm, reports = _analyze_all(metamodel_path, transformation_paths)
    total = 0
    has_unknown = False
    for r in reports:
        for d in r.diagnostics:
            total += 1
            has_unknown = has_unknown or d.kind == "unknown_concept"
            click.echo(lint_text(d, kind=_paint(d.kind), fallback=r.transformation))
    if total == 0:
        click.echo("no findings")
    if strict and has_unknown:
        raise SystemExit(2)


@main.command("chain-check")
@click.argument("metamodel_path")
@click.argument("transformation_paths", nargs=-1, required=True)
@click.option(
    "--initial",
    "initial_spec",
    default="ALL",
    show_default=True,
    help="Comma-separated concrete concepts, or ALL.",
)
def chain_check(metamodel_path, transformation_paths, initial_spec):
    """Validate an ordered chain of transformations step by step."""
    mm, reports = _analyze_all(metamodel_path, transformation_paths)
    initial = _concept_set(initial_spec, mm)
    plan = check_chain(initial, reports)
    click.echo(f"initial: {_set_text(plan.initial_set, mm)}")
    for i, step in enumerate(plan.steps, start=1):
        if step.valid:
            click.echo(f"step {i}: {step.transformation}: VALID")
        else:
            blocked = _set_text(step.input_set - reports[i - 1].refined_domain, mm)
            click.echo(
                f"step {i}: {step.transformation}: INVALID "
                f"(outside refined domain: {blocked})"
            )
        for w in step.warnings:
            click.echo(f"  warning: {w}")
    click.echo(f"final: {_set_text(plan.final_set, mm)}")
    click.echo(f"chain: {'VALID' if plan.goal_met else 'INVALID'}")


@main.command("chain-plan")
@click.argument("metamodel_path")
@click.argument("transformation_paths", nargs=-1, required=True)
@click.option(
    "--initial",
    "initial_spec",
    default="ALL",
    show_default=True,
    help="Comma-separated concrete concepts, or ALL.",
)
@click.option("--require", "require_specs", multiple=True, help="Concepts the final set must contain.")
@click.option("--forbid", "forbid_specs", multiple=True, help="Concepts the final set must not contain.")
@click.option("--max-len", "max_len", type=int, default=8, show_default=True, help="Maximum chain length.")
def chain_plan(metamodel_path, transformation_paths, initial_spec, require_specs, forbid_specs, max_len):
    """Find a shortest transformation chain meeting the goal, or exit 3."""
    if max_len < 0:
        _fail("--max-len must be at least 0", 1)
    mm, reports = _analyze_all(metamodel_path, transformation_paths)
    # Plan steps are named by module, so the names must tell the files apart.
    seen: dict[str, str] = {}
    for path, r in zip(transformation_paths, reports):
        if r.transformation in seen:
            _fail(f"duplicate transformation name '{r.transformation}': {seen[r.transformation]} and {path}", 1)
        seen[r.transformation] = path
    initial = _concept_set(initial_spec, mm)
    required = frozenset().union(*(_concept_set(s, mm) for s in require_specs)) if require_specs else frozenset()
    forbidden = frozenset().union(*(_concept_set(s, mm) for s in forbid_specs)) if forbid_specs else frozenset()
    overlap = required & forbidden
    if overlap:
        _fail(f"--require and --forbid overlap: {_set_text(overlap, mm)}", 1)
    plan = plan_chain(reports, initial, required, forbidden, max_len)
    if plan is None:
        click.echo("no plan")
        raise SystemExit(3)
    click.echo(f"plan: {len(plan.steps)} step(s)")
    for i, step in enumerate(plan.steps, start=1):
        click.echo(f"step {i}: {step.transformation}")
        for w in step.warnings:
            click.echo(f"  warning: {w}")
    click.echo(f"final: {_set_text(plan.final_set, mm)}")
