"""How far a change moves each output column of the nine default sweeps.

    python3 tools/output_moves.py PARENT_TREE [CHANGE_TREE]

A tree is a checkout, a directory holding ``src/ntkphase``; CHANGE_TREE is
the one this file is in by default.  Each tree runs the default
``SweepConfig`` of every activation x architecture with all five tables (the
sweeps ``tools/output_digest.py`` digests) in a new Python process that
imports the package from that tree's ``src/``, writing CSV to a temporary
directory that is removed at exit.

For every sweep, table and numeric column it prints the largest relative
move ``|new - old| / |old|`` of a cell (0 for equal cells, NaN and empty
cells included; inf for a cell that only one side leaves empty, NaN or
infinite, or one that leaves 0), split by the parent row's condition number
kappa, read from the parent's kappa table:

* ``k<1e6``: kappa below 1e6, cells whose parent value is above 1e-6 in
  magnitude;
* ``k<1e6,tiny``: kappa below 1e6, cells of at most 1e-6 (cancellation
  residues such as a near-zero ``pred_norm``);
* ``k>=1e6``: kappa of 1e6 or more, or infinite, whose rows are rounding
  noise;
* ``no_k``: rows without a kappa (the phase diagram and error rows).

A kernel-table row takes the kappa of its own (sigma_w2, sigma_b2, depth,
kind); a dynamics row that of the NTK at its point's deepest depth, which it
trains on.  A "-" marks a group without rows.  After the columns come the
tables whose bytes moved, then every changed ``error`` or ``phase`` cell,
every changed exit code (2 when a point fails, as the CLI exits), and
every table whose rows or columns the two trees do not share, which is not
compared cell by cell.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEYS = ("sigma_w2", "sigma_b2", "depth", "kind", "eigenvalue_index", "time")
TEXT = ("phase", "error")  # "kind" is a key
GROUPS = ("k<1e6", "k<1e6,tiny", "k>=1e6", "no_k")
KAPPA_BOUND, TINY = 1e6, 1e-6


def child(out: Path) -> None:
    """Run the nine default sweeps of the package on ``sys.path`` into ``out``."""
    from ntkphase import Activation, Architecture, SweepConfig, SweepOutput, run_sweep

    codes = {}
    for act in Activation:
        for arch in Architecture:
            name = f"{act.value}_{arch.value}"
            cfg = SweepConfig(activation=act, architecture=arch, outputs=tuple(SweepOutput))
            try:
                result = run_sweep(cfg, out / name, formats=("csv",))
                codes[name] = 2 if result.n_point_errors else 0
            except Exception as exc:  # noqa: BLE001 - the CLI exits 1 on it, and so it is listed
                codes[name] = f"1 ({type(exc).__name__}: {exc})"
    (out / "exits.json").write_text(json.dumps(codes))


def _run(tree: Path, out: Path) -> dict:
    src = tree.resolve() / "src"
    if not (src / "ntkphase").is_dir():
        raise SystemExit(f"{tree} holds no src/ntkphase")
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, __file__, "--child", str(out)], env=env, check=True)
    return json.loads((out / "exits.json").read_text())


def _read(path: Path) -> tuple:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def _number(cell: str) -> float:
    return math.nan if cell == "" else float(cell)


def _move(old: str, new: str) -> float:
    if old == new:
        return 0.0
    a, b = _number(old), _number(new)
    if math.isnan(a) and math.isnan(b) or a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0.0:
        return math.inf
    return abs(b - a) / abs(a)


def _kappas(sweep_dir: Path) -> tuple:
    """The parent's kappa per (sigma_w2, sigma_b2, depth, kind), and each point's deepest depth."""
    header, rows = _read(sweep_dir / "kappa.csv")
    col = {c: i for i, c in enumerate(header)}
    kappa, deepest = {}, {}
    for row in rows:
        point, depth = (row[col["sigma_w2"]], row[col["sigma_b2"]]), row[col["depth"]]
        if depth == "":
            continue  # an error row
        kappa[(*point, depth, row[col["kind"]])] = _number(row[col["kappa"]])
        deepest[point] = max(deepest.get(point, depth), depth, key=int)
    return kappa, deepest


def _group(kappa: float, value: str) -> str:
    if math.isnan(kappa):
        return "no_k"
    if kappa >= KAPPA_BOUND:
        return "k>=1e6"
    return "k<1e6,tiny" if value != "" and abs(float(value)) <= TINY else "k<1e6"


def compare(sweep: str, old_dir: Path, new_dir: Path) -> tuple:
    """Column lines, moved tables, changed text cells and unmatched tables of one sweep."""
    kappa, deepest = _kappas(old_dir)
    lines, moved, texts, unmatched = [], [], [], []
    for path in sorted(old_dir.glob("*.csv")):
        table, new_path = path.stem, new_dir / path.name
        if not new_path.exists():
            unmatched.append(f"{sweep}/{table}: no such table in the change")
            continue
        if path.read_bytes() != new_path.read_bytes():
            moved.append(table)
        (header, old_rows), (new_header, new_rows) = _read(path), _read(new_path)
        col = {c: i for i, c in enumerate(header)}
        keys = [i for c, i in col.items() if c in KEYS]
        if header != new_header or [[r[i] for i in keys] for r in old_rows] != [
                [r[i] for i in keys] for r in new_rows]:
            unmatched.append(f"{sweep}/{table}: the trees write other rows or columns")
            continue
        numeric = [c for c in header if c not in KEYS and c not in TEXT]
        worst = {c: dict.fromkeys(GROUPS) for c in numeric}
        for old, new in zip(old_rows, new_rows):
            point = (old[col["sigma_w2"]], old[col["sigma_b2"]])
            if "depth" in col:
                key = (*point, old[col["depth"]], old[col["kind"]])
            else:  # dynamics trains on the NTK at the deepest depth
                key = (*point, deepest.get(point), "ntk")
            k = kappa.get(key, math.nan) if table != "phase_diagram" else math.nan
            for c in numeric:
                group = _group(k, old[col[c]])
                m = _move(old[col[c]], new[col[c]])
                if worst[c][group] is None or m > worst[c][group]:
                    worst[c][group] = m
            for c in TEXT:
                if c in col and old[col[c]] != new[col[c]]:
                    texts.append(f"{sweep}/{table} {' '.join(old[i] for i in keys)} {c}: "
                                 f"{old[col[c]]!r} -> {new[col[c]]!r}")
        for c in numeric:
            cells = ("-" if worst[c][g] is None else f"{worst[c][g]:.2g}" for g in GROUPS)
            lines.append(f"{sweep:10} {table:16} {c:15} " + " ".join(f"{v:>10}" for v in cells))
    return lines, moved, texts, unmatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="the parent checkout")
    parser.add_argument("change", type=Path, nargs="?", default=ROOT,
                        help="the changed checkout (default: this one)")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if args.parent is None:
        parser.error("PARENT_TREE is required")
    with tempfile.TemporaryDirectory() as tmp:
        old_out, new_out = Path(tmp) / "parent", Path(tmp) / "change"
        old_codes, new_codes = _run(args.parent, old_out), _run(args.change, new_out)
        print(f"{'sweep':10} {'table':16} {'column':15} " + " ".join(f"{g:>10}" for g in GROUPS))
        moved, texts, unmatched = {}, [], []
        for sweep in old_codes:
            lines, moved[sweep], t, u = compare(sweep, old_out / sweep, new_out / sweep)
            print("\n".join(lines))
            texts += t
            unmatched += u
    print()
    for sweep, tables in moved.items():
        print(f"{sweep}: bytes moved in {', '.join(tables) or 'no table'}")
    exits = [f"{s} exit {old_codes[s]} -> {new_codes.get(s)}"
             for s in old_codes if old_codes[s] != new_codes.get(s)]
    for title, items in (("changed text cells", texts), ("changed exit codes", exits),
                         ("tables not compared", unmatched)):
        print(f"{title}: {len(items)}")
        for item in items:
            print(f"  {item}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
