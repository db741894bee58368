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
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ntkphase import Activation, Architecture, SweepConfig, SweepOutput, cli, run_sweep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 7)


def _file_lines(name: str, out_dir: Path) -> list:
    return [f"{name}/{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}"
            for p in sorted(out_dir.iterdir())]


def main() -> int:
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
        for act in Activation:
            for arch in Architecture:
                name = f"default/{act.value}_{arch.value}"
                out_dir = Path(tmp) / name
                cfg = SweepConfig(activation=act, architecture=arch, outputs=tuple(SweepOutput))
                result = run_sweep(cfg, out_dir, formats=("csv", "json"))
                code = 2 if result.n_point_errors else 0
                lines += _file_lines(name, out_dir) + [f"{name} exit {code}"]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
