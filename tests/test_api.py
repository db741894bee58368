"""Public names: every submodule's ``__all__`` resolves, and the package re-exports each."""

import importlib
import pkgutil

import pytest

import ntkphase

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(ntkphase.__path__))


def _public_names(module):
    """What ``from module import *`` binds: ``__all__``, or every name without a leading _."""
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


@pytest.mark.parametrize("name", SUBMODULES)
def test_star_import_of_every_submodule(name):
    # a stale __all__ entry makes ``import *`` raise AttributeError
    module = importlib.import_module(f"ntkphase.{name}")
    namespace = {}
    exec(f"from ntkphase.{name} import *", namespace)
    for export in getattr(module, "__all__", ()):
        assert namespace[export] is getattr(module, export)


def test_package_reexports_resolve_to_their_submodules():
    # the package star-imports every library submodule; the CLI is not re-exported
    library = [name for name in SUBMODULES if name != "cli"]
    assert len(library) == 8
    for module_name in library:
        module = importlib.import_module(f"ntkphase.{module_name}")
        for name in _public_names(module):
            assert getattr(ntkphase, name) is getattr(module, name), f"{module_name}.{name}"
