"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def run_python():
    """Run source code in a fresh interpreter that imports the package from ``src/``.

    For checks on what an import loads, which this process has long since
    loaded itself.  Fails the test on a nonzero exit, quoting standard error.
    """
    def run(code: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc

    return run
