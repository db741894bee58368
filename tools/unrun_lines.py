"""List the library statements that the tier-1 suite never runs.

    python3 tools/unrun_lines.py [extra pytest arguments]

Run from anywhere.  It runs the tier-1 suite (``pytest -q
--continue-on-collection-errors`` from the repository root) in this process
under ``sys.settrace``, recording the lines executed in frames whose code
lives in ``src/ntkphase``; no coverage package is needed.  It prints
pytest's own output, then one ``<file>:<line> <statement>`` line for each
statement of ``src/ntkphase/*.py`` that never ran (its first source line).
Docstrings are not statements.  Lines that only a subprocess started by a
test runs are not seen.

The tracer makes the suite several times slower (about 45 s on a 2-core
machine), so an acceptance criterion can overrun the time budget that
``report`` in ``tests/test_acceptance.py`` asserts.  Such a failure is
listed as an overrun and is not counted: its statements ran.  The exit code
is 1 if any other test fails, pytest's own code if it did not run the
suite, and 0 otherwise.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ntkphase"


def statement_lines(source: str) -> dict:
    """First line -> that line's text, for every statement that is not a docstring."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    text = source.splitlines()
    return {
        node.lineno: text[node.lineno - 1].strip()
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in docstrings
    }


class LineRecorder:
    """A ``sys.settrace`` function that records (file, line) in the package's frames only."""

    def __init__(self, package: Path):
        self.package = package
        self.hits = set()
        self._inside = {}  # co_filename -> whether it lies in the package

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        inside = self._inside.get(filename)
        if inside is None:
            inside = self._inside[filename] = Path(filename).resolve().parent == self.package
        return self._line if inside else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def ran(self) -> set:
        return {(Path(f).resolve(), line) for f, line in self.hits}


class FailureSorter:
    """pytest plugin: sorts failed tests into time-budget overruns and the rest."""

    def __init__(self):
        self.failed, self.overruns = [], []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)

    def pytest_exception_interact(self, node, call, report):
        last = call.excinfo.traceback[-1]
        if last.name == "report" and Path(str(last.path)).name == "test_acceptance.py":
            self.overruns.append(report.nodeid)


def main(argv: list) -> int:
    os.chdir(ROOT)  # the suite's paths and ini file are relative to the root
    recorder, sorter = LineRecorder(PACKAGE), FailureSorter()
    sys.settrace(recorder)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *argv], plugins=[sorter])
    finally:
        sys.settrace(None)
    for nodeid in sorter.overruns:
        print(f"time budget overrun under the tracer, not a coverage gap: {nodeid}")
    ran = recorder.ran()
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in sorted(statement_lines(path.read_text()).items()):
            if (path, line) not in ran:
                print(f"{path.name}:{line} {text}")
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return int(code)
    return int(any(nodeid not in sorter.overruns for nodeid in sorter.failed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
