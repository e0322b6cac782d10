"""The public names of the package, which load on first use."""
from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import xformlens

from helpers import subprocess_env

# Every exported record with its fields and defaults. A profile holds
# no concept and a classification no source: the concept is its
# profile's key, and a rule's source concept is the rule's own.
RECORD_SHAPES = {
    "AnalysisReport": (
        ("transformation", "source_mm", "target_mm", "profiles", "target_concepts",
         "ignored_in", "ignored_out", "refined_domain", "refined_codomain", "diagnostics"),
        {"diagnostics": ()},
    ),
    "Binding": (("feature", "value"), {}),
    "ChainPlan": (("initial_set", "steps", "goal_met"), {}),
    "ChainStep": (("transformation", "input_set", "output_set", "valid", "warnings"), {"warnings": ()}),
    "Concept": (("name", "abstract", "supertypes", "features"), {"abstract": False, "supertypes": (), "features": ()}),
    "ConceptProfile": (
        ("copy_modes", "mutation_modes", "produced_as"),
        {"copy_modes": frozenset(), "mutation_modes": frozenset(), "produced_as": frozenset()},
    ),
    "ConceptRef": (("metamodel", "name", "line", "column"), {}),
    "Expression": (("raw", "refs"), {"refs": ()}),
    "Feature": (("kind", "name", "type_name", "multiplicity"), {"multiplicity": None}),
    "FixedPointVerdict": (("flag", "explanation", "focal"), {"focal": ()}),
    "Helper": (("name", "result_type", "body", "context"), {"context": None}),
    "Lint": (("kind", "subject", "message", "file", "line", "column"), {"file": None, "line": None, "column": None}),
    "Metamodel": (("name", "concepts"), {"concepts": ()}),
    "ProfileGroup": (("copy_modes", "mutation_modes", "concepts", "rendered_label"), {}),
    "Rule": (
        ("name", "source_var", "source_concept", "targets", "guard", "lazy", "parent_rule"),
        {"guard": None, "lazy": False, "parent_rule": None},
    ),
    "RuleClassification": (("action", "mode", "targets"), {}),
    "Table": (("title", "header", "rows"), {"rows": ()}),
    "TargetPattern": (("var", "concept", "bindings"), {"bindings": ()}),
    "Transformation": (
        ("name", "source_metamodel", "target_metamodel", "helpers", "rules", "source_path"),
        {"helpers": (), "rules": (), "source_path": None},
    ),
}


@pytest.mark.parametrize("name", xformlens.__all__)
def test_every_public_name_is_the_object_its_module_defines(name):
    obj = getattr(xformlens, name)
    module = importlib.import_module(obj.__module__)
    assert module.__name__.startswith("xformlens.")
    assert vars(module)[name] is obj


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from xformlens import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(xformlens.__all__)
    assert all(namespace[name] is getattr(xformlens, name) for name in namespace)


def test_a_submodule_imports_from_the_package():
    # A fresh interpreter, where nothing has bound `xformlens.cli` yet.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "from xformlens import cli; print(cli.main.__module__)"],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "xformlens.cli\n"), proc.stderr


def test_an_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'xformlens' has no attribute 'no_such_name'"):
        xformlens.no_such_name


@pytest.mark.parametrize("name", RECORD_SHAPES)
def test_every_record_keeps_its_shape_and_has_no_instance_dict(name):
    record = getattr(xformlens, name)
    fields, defaults = RECORD_SHAPES[name]
    assert issubclass(record, tuple)
    assert record._fields == fields
    assert record._field_defaults == defaults
    # Built with tuple.__new__, since Table's constructor checks its rows.
    instance = tuple.__new__(record, (None,) * len(fields))
    assert not hasattr(instance, "__dict__")  # a large file has thousands of refs
