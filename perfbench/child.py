"""One measured ntkphase CLI call, run in a fresh process by ``run.py``.

    python3 perfbench/child.py RESULT_JSON MODE -- CLI_ARGS...

MODE is ``plain`` (time the call), ``traced`` (time it with the layer
wrappers installed), ``env`` (plain, and also record library versions) or
``setup`` (import only).  The moment ``ntkphase.cli`` is imported is taken
on CLOCK_MONOTONIC, the clock the parent read before spawning, so the
parent can compute the set-up time.  The result also holds the process's
peak resident set.  The process exits with the CLI's exit code.
"""

import time

import ntkphase.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (after the set-up timestamp on purpose)
import sys  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident set of this process since exec (VmHWM), in MiB.

    The parent's ru_maxrss for the child would also count the parent's own
    resident set at spawn time, which Linux carries across exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # reported in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    result = {"ready": READY}
    rc = 0
    if mode != "setup":
        if mode == "traced":
            from layertrace import Tracer

            tracer = Tracer()
            with tracer.installed():
                t0 = time.perf_counter()
                rc = tracer.root(ntkphase.cli.main, argv)
                t1 = time.perf_counter()
            result["layers"] = tracer.metrics()
            result["spans"] = tracer.spans
        else:
            t0 = time.perf_counter()
            rc = ntkphase.cli.main(argv)
            t1 = time.perf_counter()
        result["sweep_s"] = t1 - t0
        result["exit_code"] = rc
        if mode == "env":
            result["env"] = _environment()
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
