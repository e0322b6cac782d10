"""Corpus integrity and golden-file reproduction."""
from __future__ import annotations

import sys
from pathlib import Path

from xformlens import analyze

from helpers import (
    CORPUS,
    FIXTURE_NAMES,
    RULE_COPY_ALWAYS,
    RULE_COPY_GUARDED,
    RULE_COPY_LAZY,
    RULE_MUTATION_GUARDED,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from regen_goldens import golden_texts  # noqa: E402


def test_fixture_names_are_stable():
    assert FIXTURE_NAMES == (
        "classInstantiation",
        "enumRemoval",
        "forallRemoval",
        "recordRemoval",
        "uselessIfRemoval",
    )


def test_corpus_dir_contains_all_sources():
    assert (CORPUS / "pivot.cmm").is_file()
    for name in FIXTURE_NAMES:
        assert (CORPUS / f"{name}.tfm").is_file()


def test_corpus_loads_in_declared_order(corpus):
    mm, transformations = corpus
    assert mm.name == "CPPivot"
    assert tuple(t.name for t in transformations) == FIXTURE_NAMES
    assert all(t.source_metamodel == "CPPivot" for t in transformations)
    assert all(t.target_metamodel == "CPPivot" for t in transformations)


def test_corpus_has_no_unknown_concept_findings(reports):
    for report in reports.values():
        assert not [d for d in report.diagnostics if d.kind == "unknown_concept"]


def test_reference_snippets_ship_inside_the_corpus():
    ci = (CORPUS / "classInstantiation.tfm").read_text(encoding="utf-8")
    er = (CORPUS / "enumRemoval.tfm").read_text(encoding="utf-8")
    fr = (CORPUS / "forallRemoval.tfm").read_text(encoding="utf-8")
    assert RULE_COPY_ALWAYS in ci
    assert RULE_COPY_GUARDED in fr
    assert RULE_COPY_LAZY in fr
    assert RULE_MUTATION_GUARDED in er


def test_goldens_match_the_regeneration_tool(reports):
    texts = golden_texts(list(reports.values()))
    for name, text in texts.items():
        assert (CORPUS / name).read_bytes() == text.encode("utf-8"), name
    # perfbench/workloads.py takes corpus-cli's transformations from this directory.
    held = {f"reports/{p.name}" for p in (CORPUS / "reports").iterdir()}
    assert held == {name for name in texts if name.startswith("reports/")}


def test_fixture_paths_feed_diagnostics(corpus):
    mm, transformations = corpus
    report = analyze(transformations[3], mm, mm)
    assert report.transformation == "recordRemoval"
    assert all(d.file is None for d in report.diagnostics)
    assert transformations[3].source_path.endswith("recordRemoval.tfm")
