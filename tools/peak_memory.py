"""Peak memory of one CLI call of each benchmark workload, in fresh processes.

    python3 tools/peak_memory.py [--seed N] [--workload NAME ...]
    python3 tools/peak_memory.py --against PARENT_TREE [--pairs N] [...]

Run from anywhere; the package is imported from ``src/`` next to this file
(or under PARENT_TREE, for that tree's calls) and the workloads from
``perfbench/workloads.py`` next to this file, which is read, never
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

With ``--against PARENT_TREE`` (a checkout of another commit, say one made
by ``git archive``), each workload is measured ``--pairs`` times on both
trees, alternating which goes first, and three lines are printed: the
medians of the parent tree, of this tree, and this tree's change.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
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


def _spawn(tree: Path, name: str, seed: int, traced: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(tree / "src")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name,
           "--seed", str(seed), "--traced", str(int(traced))]
    proc = subprocess.run(cmd, env=env, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def measure(tree: Path, name: str, seed: int) -> dict:
    """One untraced and one traced call of workload ``name`` on ``tree``'s package."""
    plain, traced = _spawn(tree, name, seed, False), _spawn(tree, name, seed, True)
    return {**plain, "traced_peak_mb": traced["traced_peak_mb"],
            "exits": {plain["exit"], traced["exit"]}}


COLUMNS = ("traced_peak_mb", "vmhwm_mb", "minor_faults", "sys_s")


def _line(name: str, label: str, row: dict, signed: bool = False) -> str:
    sign = "+" if signed else ""
    return (f"{name:20} {label:6} {row['traced_peak_mb']:{sign}14.2f} {row['vmhwm_mb']:{sign}9.2f} "
            f"{row['minor_faults']:{sign}12.0f} {row['sys_s']:{sign}6.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=list(_workloads()),
                        help="one workload (repeatable); all by default")
    parser.add_argument("--against", type=Path, metavar="PARENT_TREE",
                        help="also measure the package under this tree, alternating with this one")
    parser.add_argument("--pairs", type=int, default=1,
                        help="measurements of each tree per workload with --against (default 1)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.seed, bool(args.traced))))
        return 0
    workloads = _workloads()
    failed = False
    if args.against is None:
        print(f"{'workload':20} {'traced_peak_mb':>14} {'vmhwm_mb':>9} {'minor_faults':>12} "
              f"{'sys_s':>6} exit")
        for name in args.workload or list(workloads):
            row = measure(ROOT, name, args.seed)
            failed |= row["exits"] != {workloads[name].expected_exit_code}
            print(f"{name:20} {row['traced_peak_mb']:14.2f} {row['vmhwm_mb']:9.2f} "
                  f"{row['minor_faults']:12d} {row['sys_s']:6.3f} {row['exit']}")
        return 1 if failed else 0
    trees = {"parent": args.against.resolve(), "this": ROOT}
    print(f"{'workload':20} {'tree':6} {'traced_peak_mb':>14} {'vmhwm_mb':>9} {'minor_faults':>12} "
          f"{'sys_s':>6}   (medians of {args.pairs})")
    for name in args.workload or list(workloads):
        runs = {label: [] for label in trees}
        for pair in range(args.pairs):  # alternate which tree goes first
            for label in (("parent", "this") if pair % 2 == 0 else ("this", "parent")):
                row = measure(trees[label], name, args.seed)
                failed |= row["exits"] != {workloads[name].expected_exit_code}
                runs[label].append(row)
        medians = {label: {c: statistics.median(r[c] for r in rows) for c in COLUMNS}
                   for label, rows in runs.items()}
        change = {c: medians["this"][c] - medians["parent"][c] for c in COLUMNS}
        for label in trees:
            print(_line(name, label, medians[label]))
        print(_line(name, "change", change, signed=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
