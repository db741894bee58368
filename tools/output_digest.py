"""SHA-256 digest of every output file of the benchmark workloads and the default sweeps.

    python3 tools/output_digest.py > digest.txt

Run from anywhere; the package is imported from ``src/`` next to this file.
It prints one ``<name> <sha256>`` line per output file and one
``<run> exit <code>`` line per run, covering:

* each workload of ``perfbench/workloads.py`` at ``--seed`` 1, 2 and 7,
  through the CLI entry with the workload's own arguments;
* the default ``SweepConfig`` of each activation x architecture with all
  five tables, written in CSV and JSON (exit code as the CLI would give it).

Two trees that write the same bytes print the same digest, so ``diff`` of
two digests names exactly the outputs a change moves.  Work files go to a
temporary directory that is removed at exit.

The default-sweep lines are also committed, below a header naming the host
libraries that fix their bytes (``host_header``), in
``tests/default_digest.txt``, which a tier-1 test recomputes.  A change
that moves those bytes rewrites the file with

    python3 -c 'import runpy; runpy.run_path("tools/output_digest.py")["write_default_digest"]()'
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_DIGEST = ROOT / "tests" / "default_digest.txt"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ntkphase import Activation, Architecture, SweepConfig, SweepOutput, cli, run_sweep  # noqa: E402
from ntkphase.sweep import _numpy_openblas_threads  # noqa: E402

SEEDS = (1, 2, 7)


def _file_lines(name: str, out_dir: Path) -> list:
    return [f"{name}/{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}"
            for p in sorted(out_dir.iterdir())]


def default_lines() -> list:
    """The ``default/`` lines: the nine default sweeps with all five tables, CSV and JSON."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for act in Activation:
            for arch in Architecture:
                name = f"default/{act.value}_{arch.value}"
                out_dir = Path(tmp) / name
                cfg = SweepConfig(activation=act, architecture=arch, outputs=tuple(SweepOutput))
                result = run_sweep(cfg, out_dir, formats=("csv", "json"))
                code = 2 if result.n_point_errors else 0
                lines += _file_lines(name, out_dir) + [f"{name} exit {code}"]
    return lines


def host_header() -> list:
    """``# `` lines naming what fixes the bytes besides the code.

    They are numpy's version, the BLAS numpy was built against, the runtime
    configuration of numpy's OpenBLAS (its kernel family, e.g. SkylakeX)
    and the SIMD targets numpy dispatches to on this CPU.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    from numpy.linalg import _umath_linalg

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = "none"
    controls = _numpy_openblas_threads()
    if controls is not None:  # the lookup's own handle and symbol family
        name = controls[0].__name__.replace("get_num_threads", "get_config")
        get_config = getattr(ctypes.CDLL(_umath_linalg.__file__), name)
        get_config.restype = ctypes.c_char_p
        config = get_config().decode()
    simd = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return [f"# numpy {np.__version__}",
            f"# blas {blas['name']} {blas['version']}",
            f"# openblas {config}",
            f"# simd {' '.join(simd) or 'none'}"]


def write_default_digest() -> None:
    """Rewrite ``tests/default_digest.txt`` from this tree and host."""
    DEFAULT_DIGEST.write_text("\n".join(host_header() + default_lines()) + "\n")


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))  # here, so that importing this module does not
    from workloads import WORKLOADS

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for w in WORKLOADS.values():
            for seed in SEEDS:
                name = f"{w.name}/seed{seed}"
                out_dir = Path(tmp) / name
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(w.argv(seed, str(out_dir)))
                lines += _file_lines(name, out_dir) + [f"{name} exit {code}"]
    print("\n".join(lines + default_lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
