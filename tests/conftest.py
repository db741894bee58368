"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def run_python():
    """Run source code in a fresh interpreter that imports the package from ``src/``.

    For checks on what an import loads, which this process has long since
    loaded itself.  The BLAS thread-count variables are left out of the
    child's environment, so a value set in the caller's shell does not
    change the thread count a check sees.  Fails the test on a nonzero
    exit, quoting standard error.
    """
    def run(code: str) -> subprocess.CompletedProcess:
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc

    return run
