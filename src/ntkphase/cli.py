"""Command-line front end.

Subcommands map to output selections over the same sweep engine:

    ntkphase sweep          all outputs listed in the config
    ntkphase phase-diagram  fixed points / slopes / phases + transition curve
    ntkphase trajectory     condition-number and spectrum tables
    ntkphase decay          mean-predictor norm series
    ntkphase dynamics       gradient-flow training traces

Every config field can be set in a JSON file (--config) and overridden by
a flag of the same name.  Exit codes: 0 success, 1 configuration error,
2 completed with per-point failures recorded in the output tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .data import DataGenerator
from .phase import Architecture
from .activations import Activation
from .sweep import SweepConfig, SweepOutput, run_sweep

_SUBCOMMAND_OUTPUTS = {
    "sweep": None,  # use the config's outputs
    "phase-diagram": (SweepOutput.PHASE_DIAGRAM,),
    "trajectory": (SweepOutput.KAPPA, SweepOutput.SPECTRUM),
    "decay": (SweepOutput.PREDICTOR_DECAY,),
    "dynamics": (SweepOutput.DYNAMICS_TRACE,),
}

_LIST_FIELDS = {"sigma_w2_grid", "sigma_b2_grid", "depths", "outputs"}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(SweepConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name in _LIST_FIELDS:
            parser.add_argument(flag, dest=f.name, type=str, default=None,
                                help=f"comma-separated {f.name}")
        else:
            parser.add_argument(flag, dest=f.name, type=str, default=None)


def _coerce(name: str, raw: str):
    if name in ("sigma_w2_grid", "sigma_b2_grid"):
        return [float(v) for v in raw.split(",") if v]
    if name == "depths":
        return [int(v) for v in raw.split(",") if v]
    if name == "outputs":
        return [SweepOutput(v.strip()) for v in raw.split(",") if v]
    if name in ("m", "n", "spatial_size", "filter_halfwidth", "seed", "n_features"):
        return int(raw)
    if name == "ridge":
        return float(raw)
    if name == "activation":
        return Activation(raw)
    if name == "architecture":
        return Architecture(raw)
    if name == "generator":
        return DataGenerator(raw)
    return raw


def _build_config(args: argparse.Namespace) -> SweepConfig:
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    overrides = {}
    for f in fields(SweepConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            overrides[f.name] = _coerce(f.name, raw)
    cfg = SweepConfig(**{**base, **overrides})
    forced = _SUBCOMMAND_OUTPUTS[args.command]
    if forced is not None:
        cfg = replace(cfg, outputs=forced)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ntkphase", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_OUTPUTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default="ntkphase_out", help="output directory")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        _add_config_flags(p)  # --seed and every other SweepConfig field
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
    result = run_sweep(cfg, args.out, threads=max(1, args.threads), formats=(args.format,))
    for path in result.paths:
        print(path)
    if result.n_point_errors:
        print(f"{result.n_point_errors} row(s) carry errors", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
