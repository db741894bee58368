"""Source hygiene: every imported name in the package and the tests is used,
every module-level private name of the package is read somewhere, every
exception class lives in ``ntkphase.errors``, no test skips for want of a
declared test dependency, and ``tools/unrun_lines.py`` finds a statement
that no call reaches."""

import ast
import importlib.util
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# __init__.py imports are the package's re-exports
FILES = sorted(
    p for p in [*(ROOT / "src" / "ntkphase").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list:
    """Names bound by an import and never read, except those listed in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    src = "import os\nfrom math import pi, tau\nimport numpy as np\n__all__ = ['tau']\nnp.pi\n"
    assert _unused_imports(src) == ["os (line 1)", "pi (line 2)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


# every file that may read a package module's private names
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level ``_name`` -> (first, last) line of its definition."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defs[name] = (node.lineno, node.end_lineno)
    return defs


def _references(tree: ast.Module) -> list:
    """(name, line) of every name, attribute, imported name and string constant."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            refs.append((node.name, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.append((node.value, node.lineno))  # getattr / monkeypatch by name
    return refs


def _dead_private_names(modules: dict, readers: dict) -> list:
    """``module: name`` for each private module-level name of ``modules`` (path ->
    source) that no reader (path -> source) references outside its own definition."""
    read_elsewhere = {}
    for path, source in readers.items():
        for name, line in _references(ast.parse(source)):
            read_elsewhere.setdefault(name, []).append((path, line))
    dead = []
    for path, source in modules.items():
        for name, (first, last) in _private_definitions(ast.parse(source)).items():
            if not any(p != path or not first <= line <= last
                       for p, line in read_elsewhere.get(name, [])):
                dead.append(f"{path}: {name}")
    return sorted(dead)


def test_scan_flags_an_unused_private_name():
    module = (
        "_USED = 1\n_DEAD = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _by_other():\n    return _USED\n"
        "def _by_name():\n    pass\n"
    )
    other = "import m\nm._by_other()\nsetattr(m, '_by_name', None)\n"
    assert _dead_private_names({"m": module}, {"m": module, "o": other}) == [
        "m: _DEAD", "m: _recursive"]


def test_every_private_name_is_read():
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in READERS}
    package = {p: s for p, s in sources.items() if p.startswith("src/ntkphase/")}
    assert _dead_private_names(package, sources) == []


def _dataclass_fields(tree: ast.Module) -> list:
    """(class, field) for each annotated field of a ``@dataclass`` class body."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return [
        (node.name, stmt.target.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _attribute_reads(tree: ast.Module) -> set:
    """Names read as ``x.name`` or ``getattr(x, "name")``."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads


def _unread_fields(modules: dict, readers: dict) -> list:
    """``module: Class.field`` for each dataclass field of ``modules`` (path -> source)
    whose name no reader (path -> source) reads as an attribute.

    Fields are matched by name alone, so a field whose name is read on any
    other object passes: an unread ``CnnKernel.spatial_size`` field would go
    unseen, because ``.spatial_size`` is read on ``Hyperparams`` and
    ``SweepConfig``.
    """
    reads = set().union(*(_attribute_reads(ast.parse(s)) for s in readers.values()))
    return sorted(f"{path}: {cls}.{name}" for path, source in modules.items()
                  for cls, name in _dataclass_fields(ast.parse(source)) if name not in reads)


def test_scan_flags_an_unread_dataclass_field():
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass C:\n    read: int\n    by_name: int\n    dead: int\n"
        "@dataclass\nclass D:\n    written: int\n"
        "class Plain:\n    unread: int\n"
    )
    other = "c.read\ngetattr(c, 'by_name')\nd.written = 1\nC(read=1, by_name=2, dead=3)\n"
    assert _unread_fields({"m": module}, {"m": module, "o": other}) == ["m: C.dead", "m: D.written"]


def test_every_dataclass_field_is_read():
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in READERS}
    package = {p: s for p, s in sources.items() if p.startswith("src/ntkphase/")}
    assert _unread_fields(package, sources) == []


def _exception_classes(module) -> list:
    """Names of the exception classes that ``module`` itself defines at its top level."""
    return sorted(name for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__)


def test_scan_flags_an_exception_class_defined_in_the_module():
    module = types.ModuleType("m")
    exec("from json import JSONDecodeError\nclass Local(ValueError):\n    pass\n"
         "class Plain:\n    pass\n", vars(module))
    assert _exception_classes(module) == ["Local"]


@pytest.mark.parametrize("path", sorted(p for p in (ROOT / "src" / "ntkphase").glob("*.py")
                                        if p.name != "errors.py"), ids=lambda p: p.name)
def test_every_exception_class_lives_in_errors(path):
    # one module holds the error types, so ntkphase.errors lists every one a caller can catch
    name = "ntkphase" if path.stem == "__init__" else f"ntkphase.{path.stem}"
    assert _exception_classes(importlib.import_module(name)) == []


def _skipped_declared_imports(source: str, declared: set) -> list:
    """``module (line n)`` for each ``importorskip`` call on a module of ``declared``."""
    return sorted(
        f"{node.args[0].value} (line {node.lineno})" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip"
        and node.args and isinstance(node.args[0], ast.Constant)
        and node.args[0].value.split(".")[0] in declared
    )


def test_scan_flags_an_importorskip_of_a_declared_module():
    src = ('mp = pytest.importorskip("mpmath")\nx = pytest.importorskip("mpmath.libmp")\n'
           'y = pytest.importorskip("optional_extra")\n')
    assert _skipped_declared_imports(src, {"mpmath"}) == ["mpmath (line 1)", "mpmath.libmp (line 2)"]


def test_no_test_skips_a_declared_test_dependency():
    # a declared dependency that is missing should fail the run, not skip the checks needing it
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_") for req in extra}
    assert "mpmath" in declared
    found = {p.name: _skipped_declared_imports(p.read_text(), declared)
             for p in sorted((ROOT / "tests").glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _unrun_lines_tool():
    path = ROOT / "tools" / "unrun_lines.py"
    spec = importlib.util.spec_from_file_location("tools_unrun_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unrun_lines_reports_the_statement_no_call_reaches(tmp_path):
    tool = _unrun_lines_tool()
    source = (
        '"""Module docstring."""\n'
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    if x:\n"
        "        return 1\n"
        "    return 2\n"
    )
    statements = tool.statement_lines(source)
    assert statements == {2: "def f(x):", 4: "if x:", 5: "return 1", 6: "return 2"}
    path = (tmp_path / "m.py").resolve()
    recorder = tool.LineRecorder(path.parent)
    namespace = {}
    outer = sys.gettrace()  # the tool itself may be tracing this test
    sys.settrace(recorder)
    try:
        exec(compile(source, str(path), "exec"), namespace)
        namespace["f"](True)
    finally:
        sys.settrace(outer)
    ran = recorder.ran()
    assert [line for line in statements if (path, line) not in ran] == [6]
