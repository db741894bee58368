"""Public names: every submodule's ``__all__`` resolves, and the package re-exports each
at first use."""

import importlib
import pkgutil

import pytest

import ntkphase

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(ntkphase.__path__))
LIBRARY = [name for name in SUBMODULES if name != "cli"]  # the CLI is not re-exported


@pytest.mark.parametrize("name", SUBMODULES)
def test_star_import_of_every_submodule(name):
    # a stale __all__ entry makes ``import *`` raise AttributeError
    module = importlib.import_module(f"ntkphase.{name}")
    namespace = {}
    exec(f"from ntkphase.{name} import *", namespace)
    for export in getattr(module, "__all__", ()):
        assert namespace[export] is getattr(module, export)


def test_package_reexports_resolve_to_their_submodules():
    # each library submodule's __all__ is its public list, which the package re-exports
    assert len(LIBRARY) == 8
    for module_name in LIBRARY:
        module = importlib.import_module(f"ntkphase.{module_name}")
        for name in module.__all__:
            assert getattr(ntkphase, name) is getattr(module, name), f"{module_name}.{name}"


def test_star_import_of_the_package_binds_the_union_of_the_submodule_lists():
    namespace = {}
    exec("from ntkphase import *", namespace)
    del namespace["__builtins__"]
    expected = {}
    for module_name in LIBRARY:
        module = importlib.import_module(f"ntkphase.{module_name}")
        expected.update((name, getattr(module, name)) for name in module.__all__)
    assert namespace.keys() == expected.keys() and sorted(ntkphase.__all__) == sorted(expected)
    assert all(namespace[name] is obj for name, obj in expected.items())


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ntkphase.no_such_name


def test_importing_the_package_loads_no_numpy(run_python):
    # the submodules load at the first lookup of a name other than __version__
    run_python(
        "import sys\n"
        "import ntkphase\n"
        "assert ntkphase.__version__\n"
        "assert 'numpy' not in sys.modules and 'ntkphase.sweep' not in sys.modules\n"
        "assert ntkphase.Hyperparams and 'numpy' in sys.modules\n"
    )
