"""The public names of the package, which load on first use."""
from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import xformlens

from helpers import subprocess_env


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
