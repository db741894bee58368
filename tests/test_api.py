"""Public names: every submodule's ``__all__`` and every package re-export resolve."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ntkphase

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(ntkphase.__path__))


def _reexports():
    """(submodule, name) for each ``from .submodule import name`` in the package init."""
    tree = ast.parse(Path(ntkphase.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", SUBMODULES)
def test_star_import_of_every_submodule(name):
    # a stale __all__ entry makes ``import *`` raise AttributeError
    module = importlib.import_module(f"ntkphase.{name}")
    namespace = {}
    exec(f"from ntkphase.{name} import *", namespace)
    for export in getattr(module, "__all__", ()):
        assert namespace[export] is getattr(module, export)


def test_package_reexports_resolve_to_their_submodules():
    reexports = _reexports()
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"ntkphase.{module_name}")
        assert getattr(ntkphase, name) is getattr(module, name)
        assert name in getattr(module, "__all__", [name]), f"{module_name}.{name} not in __all__"
