"""Peak memory of one CLI call of each benchmark workload, in fresh processes.

    python3 tools/peak_memory.py [--seed N] [--workload NAME ...]

Run from anywhere; the package is imported from ``src/`` next to this file
and the workloads from ``perfbench/workloads.py``, which is read, never
changed.  Each workload's CLI call (its own arguments, ``--threads 1``,
with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS removed from
the environment, as ``perfbench/run.py`` runs it) runs twice, each time in
a new Python process:

* untraced, for the process's VmHWM (peak resident set since exec, in MiB,
  as ``perfbench`` reads it), and for the minor page faults and system CPU
  seconds of the call alone (``getrusage`` before and after it);
* under ``tracemalloc``, for the largest sum of live Python and numpy
  allocations during the call, in MiB.

The traced peak counts only what the program holds: glibc arena layout and
the heap of compiling the package at import, which move VmHWM by a few
tenths of a MiB between trees that hold the same arrays, do not reach it.
One line per workload is printed; the exit code is 1 when a call exits
with another code than the workload expects.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _workloads() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return WORKLOADS


def _vmhwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # reported in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def child(name: str, seed: int, traced: bool) -> dict:
    """Run one CLI call of workload ``name`` in this process and measure it."""
    from ntkphase import cli

    with tempfile.TemporaryDirectory() as tmp:
        argv = _workloads()[name].argv(seed, tmp)
        before = resource.getrusage(resource.RUSAGE_SELF)
        if traced:
            tracemalloc.start()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1] if traced else None
        tracemalloc.stop()
        after = resource.getrusage(resource.RUSAGE_SELF)
    if traced:
        return {"exit": code, "traced_peak_mb": peak / 2**20}
    return {"exit": code, "vmhwm_mb": _vmhwm_mb(),
            "minor_faults": after.ru_minflt - before.ru_minflt,
            "sys_s": after.ru_stime - before.ru_stime}


def _spawn(name: str, seed: int, traced: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name,
           "--seed", str(seed), "--traced", str(int(traced))]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=list(_workloads()),
                        help="one workload (repeatable); all by default")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.seed, bool(args.traced))))
        return 0
    workloads = _workloads()
    failed = False
    print(f"{'workload':20} {'traced_peak_mb':>14} {'vmhwm_mb':>9} {'minor_faults':>12} "
          f"{'sys_s':>6} exit")
    for name in args.workload or list(workloads):
        plain, traced = _spawn(name, args.seed, False), _spawn(name, args.seed, True)
        failed |= {plain["exit"], traced["exit"]} != {workloads[name].expected_exit_code}
        print(f"{name:20} {traced['traced_peak_mb']:14.2f} {plain['vmhwm_mb']:9.2f} "
              f"{plain['minor_faults']:12d} {plain['sys_s']:6.3f} {plain['exit']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
