"""Every byte of the nine default sweeps against the committed ``default_digest.txt``.

The lines come from ``default_lines`` of ``tools/output_digest.py``, the
function that prints them in the full digest, so the two cannot drift.  The
file's ``#`` header names the host libraries that fix the bytes; a host
whose libraries differ fails as a host change, not as a code change.  A
change that moves bytes rewrites the file (see the tool's docstring).
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    path = ROOT / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("tools_output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _tool()
COMMITTED = TOOL.DEFAULT_DIGEST.read_text().splitlines()
HEADER = [line for line in COMMITTED if line.startswith("#")]
LINES = [line for line in COMMITTED if not line.startswith("#")]


def _host_change() -> str:
    return ("host change, not a code change: the libraries that fix the bytes differ from those "
            f"the digest was made with\n  committed: {HEADER}\n  this host: {TOOL.host_header()}")


def test_the_host_is_the_one_the_digest_was_made_on():
    assert TOOL.host_header() == HEADER, _host_change()


def test_the_default_sweeps_write_the_committed_bytes():
    if TOOL.host_header() != HEADER:
        pytest.fail(_host_change())
    lines = TOOL.default_lines()
    moved = sorted(set(lines) ^ set(LINES))
    assert lines == LINES, "outputs moved; if meant, rewrite the digest:\n" + "\n".join(moved)
