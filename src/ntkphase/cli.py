"""Command-line front end.

Subcommands map to output selections over the same sweep engine:

    ntkphase sweep          all outputs listed in the config
    ntkphase phase-diagram  fixed points / slopes / phases + transition curve
    ntkphase trajectory     condition-number and spectrum tables
    ntkphase decay          mean-predictor norm series
    ntkphase dynamics       gradient-flow training traces

Every config field can be set in a JSON file (--config) and overridden by
a flag of the same name; the flags are derived from ``SweepConfig``, each
parsing the type of its field's default (for a tuple, a comma-separated list
of its first item's type); only ``sweep`` takes ``outputs``, and a field the
run does not read must keep its default.  Exit codes: 0 success, 1 configuration
error, 2 completed with per-point failures recorded in the output tables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

# OpenBLAS reads its thread count once, when it loads: numpy's, loaded at one
# thread, starts no worker to spin while idle (the policy: sweep._one_blas_thread).
# The variable is removed again once numpy has loaded, so a process this one
# starts does not inherit it.
_SET_BLAS_THREADS = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
if _SET_BLAS_THREADS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .sweep import SweepConfig, SweepOutput, run_sweep  # noqa: E402

if _SET_BLAS_THREADS:
    del os.environ["OPENBLAS_NUM_THREADS"]

# argparse translates its messages through gettext, which imports locale at the
# first one; importing it here counts it in start-up, not in the run
__import__("locale")

_SUBCOMMAND_OUTPUTS = {
    "sweep": None,  # use the config's outputs
    "phase-diagram": (SweepOutput.PHASE_DIAGRAM,),
    "trajectory": (SweepOutput.KAPPA, SweepOutput.SPECTRUM),
    "decay": (SweepOutput.PREDICTOR_DECAY,),
    "dynamics": (SweepOutput.DYNAMICS_TRACE,),
}


def _flag_type(default):
    """The parser of a flag's text, from the type of its field's default."""
    if not isinstance(default, tuple):
        return type(default)
    item = type(default[0])

    def comma_separated(raw: str) -> list:
        return [item(v.strip()) for v in raw.split(",") if v]

    return comma_separated


def _build_config(args: argparse.Namespace) -> SweepConfig:
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    forced = _SUBCOMMAND_OUTPUTS[args.command]
    if forced is not None and "outputs" in base:
        raise ValueError(f"{args.command} sets the outputs itself; drop them from the config")
    overrides = {f.name: getattr(args, f.name) for f in fields(SweepConfig)
                 if getattr(args, f.name) is not None}
    return SweepConfig(**{**base, **overrides})


def build_parser() -> argparse.ArgumentParser:
    # each flag is defined once, in a parent parser that every subcommand copies
    common, outputs = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--out", type=str, default="ntkphase_out", help="output directory")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; grid points run on one thread")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    for f in fields(SweepConfig):  # --seed and every other field
        (outputs if f.name == "outputs" else common).add_argument(
            "--" + f.name.replace("_", "-"), dest=f.name, type=_flag_type(f.default), default=None)
    parser = argparse.ArgumentParser(prog="ntkphase", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, forced in _SUBCOMMAND_OUTPUTS.items():
        p = sub.add_parser(name, parents=[common] if forced else [common, outputs])
        p.set_defaults(outputs=forced)  # a forced subcommand has no --outputs to override it
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return 1  # usage error; argparse's own code 2 would read as per-point failures
    try:
        cfg = _build_config(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    result = run_sweep(cfg, args.out, formats=(args.format,))
    for path in result.paths:
        print(path)
    if result.n_point_errors:
        print(f"{result.n_point_errors} row(s) carry errors", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
