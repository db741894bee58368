"""Benchmark of the ntkphase CLI: one command per workload, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S      # every workload, summary

Run from the repository root; the package is imported from ``src/``.  Each
CLI call runs in a fresh process (``child.py``) with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS removed from its environment, so the
caller's shell cannot change the BLAS threading.  One call per run is a
discarded warm-up; then calls repeat for about S seconds (a call starts
while half of it fits, and there are at least two).  End-to-end metrics
are medians over the calls of an untraced run; ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics of the traced
ones (see ``layertrace.py``) plus the tracing overhead.  Every call's
output must match the warm-up call's byte for byte, and that output passes
``checks.py``.  The last line of standard output is the result as one JSON
object; the exit code is 1 when any check fails.  Work files go to
``.perfbench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
ISOLATED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CALLS = 2
MIN_SETUPS = 5  # set-up samples per run; import-only calls top up short runs
RUN_TIMEOUT_S = 170  # a run must end within 180 s; a call still going is killed

END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

sys.path[:0] = [str(HERE), str(SRC)]  # the checks import ntkphase after timing
from workloads import WORKLOADS, Workload  # noqa: E402


class Runner:
    """Spawns the measured CLI calls of one workload run."""

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.dir = OUT / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.deadline = time.monotonic() + RUN_TIMEOUT_S

    def call(self, mode: str, out_name: str = "rep") -> dict:
        """One child process; returns its timings, CPU time and output hash."""
        out_dir = self.dir / out_name
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path = self.dir / f"{mode}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, "--",
               *self.w.argv(self.seed, str(out_dir))]
        with open(self.dir / "stderr.txt", "ab") as err:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if not result_path.is_file():
            raise RuntimeError(f"{mode} call exited {proc.returncode} without a result; "
                               f"see {self.dir / 'stderr.txt'}")
        with open(result_path) as fh:
            res = json.load(fh)
        result_path.unlink()
        res.update(
            setup_s=res["ready"] - spawned,
            cpu_s=usage.ru_utime + usage.ru_stime,
            process_exit=proc.returncode,
        )
        if mode != "setup":
            res["hash"] = _hash_dir(out_dir)
        return res


def _hash_dir(path: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(path.iterdir()) if path.is_dir() else []:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()


def _environment(child_env: dict, caller_blas_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (no git checkout)"
    except OSError:
        commit = "unknown (no git)"
    return {
        **child_env,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "removed_from_child_env": caller_blas_env,
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, caller_blas_env: dict):
    """Measure one workload; returns (result line dict, report dict)."""
    import checks

    runner = Runner(w, seed)
    reference = runner.call("env", out_name="reference")  # warm-up, discarded from timing
    calls = []
    start = now = time.perf_counter()
    # Start another call while at least half of it fits in the window.
    while len(calls) < MIN_CALLS or now + 0.5 * (now - start) / len(calls) < start + seconds:
        mode = "traced" if trace and len(calls) % 2 else "plain"
        calls.append(runner.call(mode))
        now = time.perf_counter()
    measured_s = now - start
    plain = [c for c in calls if "layers" not in c]
    setups = [c["setup_s"] for c in plain]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(runner.call("setup")["setup_s"])

    tables = checks.read_tables(runner.dir / "reference")
    fails = checks.check_structure(w, tables, reference["exit_code"])
    if not fails:
        fails = checks.check_values(w, tables) + checks.recompute(w, tables, seed)
    bad_calls = 0
    call_fails = []
    for i, c in enumerate(calls):
        why = []
        if c["hash"] != reference["hash"]:
            why.append("output differs from the warm-up call's")
        if c["exit_code"] != reference["exit_code"] or c["process_exit"] != c["exit_code"]:
            why.append(f"exit code {c['exit_code']} / process {c['process_exit']}")
        call_fails += [f"call {i}: {m}" for m in why]
        bad_calls += bool(why or fails)  # a call that matches a failing reference fails too
    fails += call_fails

    units = w.units()
    failed_units = units if fails else checks.failed_units(w, tables)
    metrics = {}
    if trace:
        traced = [c for c in calls if "layers" in c]
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(c["layers"][name] for c in traced)
        metrics["sweep.rows"] = sum(len(rows) for _, rows in tables.values())
        metrics["sweep.output_bytes"] = sum(
            p.stat().st_size for p in (runner.dir / "reference").iterdir())
        metrics["trace.overhead_s"] = (statistics.median(c["sweep_s"] for c in traced)
                                       - statistics.median(c["sweep_s"] for c in plain))
        with open(runner.dir / "spans.json", "w") as fh:
            json.dump(traced[-1]["spans"], fh)
        from layertrace import LAYER_METRICS
        units_of = LAYER_METRICS
    else:
        for name in ("sweep_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(c[name] for c in plain)
        metrics["setup_s"] = statistics.median(setups)
        metrics["ok_share"] = 1.0 - failed_units / units
        units_of = END_TO_END
    line = {
        "correct": not fails,
        "attempted": len(calls),
        "failed": bad_calls,
        "metrics": {k: {"value": metrics[k], "unit": units_of[k]} for k in units_of},
    }
    samples = {name: [c[name] for c in plain] for name in ("sweep_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    report = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "measured_s": measured_s,
        "argv": w.argv(seed, "OUT"),
        "units_attempted": units,
        "units_failed": failed_units,
        "error_share": failed_units / units,
        "check_failures": fails,
        "samples": samples,
        "environment": _environment(reference["env"], caller_blas_env),
        "result": line,
    }
    with open(runner.dir / "result.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return line, report


def _print_report(report: dict) -> None:
    name = report["workload"]
    for fail in report["check_failures"][:20]:
        print(f"{name}: CHECK FAILED: {fail}")
    if report["trace"]:
        for metric, entry in report["result"]["metrics"].items():
            print(f"{name}  {metric:<30} {entry['value']:.6g} {entry['unit']}")
        return
    for metric, values in report["samples"].items():
        q1, q3 = _quartiles(values)
        print(f"{name}  {metric:<12} median {statistics.median(values):.6g} "
              f"{END_TO_END[metric]}  (n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"{name}  ok_share     {report['result']['metrics']['ok_share']['value']:.6g} ratio  "
          f"(error_share {report['units_failed']}/{report['units_attempted']} units "
          f"over {report['result']['attempted']} calls)")
    env = report["environment"]
    print(f"{name}  env: {json.dumps(env, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ntkphase" / "cli.py").is_file():
        print(f"no ntkphase sources under {SRC}", file=sys.stderr)
        return 2

    # The children inherit this environment; the checks' numpy runs under it too.
    caller_blas_env = {v: os.environ.pop(v, None) for v in ISOLATED_VARS}
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    line = None
    for name in names:
        line, report = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                    caller_blas_env)
        _print_report(report)
        ok = ok and line["correct"]
    if args.workload:
        print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
