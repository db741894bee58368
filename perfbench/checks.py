"""Output checks for the benchmark's CLI calls.

Checks never depend on one seed or on values below double precision:

* structure: table files, columns, row keys (sigma_w2, sigma_b2, depth,
  kind, index), exit code, and which rows carry which error *type* (not the
  message text), against the reference in ``workloads.py``;
* invariants that hold bit for bit whatever the precision: phase label
  against chi1, kappa = lambda_max / lambda_min of the emitted values,
  spectrum rows against the kappa rows, eta = 1 / lambda_max, monotone
  gradient-flow residuals;
* closed forms: the ReLU transition at sigma_w2 = 2 and
  q* = sigma_b2 / (1 - sigma_w2 / 2);
* ``recompute``: a few rows sampled by the seed, recomputed through the
  public API.  Phase rows use the quadrature backend at 160 nodes (the
  package default is 128).  Depth-1 kernel rows use the same backend for
  tanh; for erf, whose closed form the sweep uses, they are recomputed with
  the closed form and the maps are checked against 160-node quadrature at
  sampled entries of the input kernel (a full quadrature kernel would take
  seconds per run).  Deep rows are never compared by value: the deep-erf
  condition numbers sit at the limit of double precision.

Every check returns a list of failure messages; empty means the output
passed.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import COLUMNS, DYNAMICS_TIMES, KINDS, Workload

PHASE_TOL = 1e-8  # the package's critical band |chi1 - 1| <= 1e-8
ORACLE_NODES = 160

Tables = Dict[str, Tuple[List[str], List[List[str]]]]


def num(text: str) -> Optional[float]:
    return float(text) if text != "" else None


def error_type(text: str) -> Optional[str]:
    return text.split(":", 1)[0] if text else None


def read_tables(out_dir: Path) -> Tables:
    """Parse every CSV the call wrote; unexpected files are kept for the check."""
    tables: Tables = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        tables[path.stem] = (rows[0] if rows else [], rows[1:])
    return tables


def _row_key(table: str, row: List[str], index: int, n_grid: int, seen: dict):
    try:
        if table == "phase_diagram":
            if index < n_grid:
                return (num(row[0]), num(row[1]))
            return ("transition", num(row[1]))
        if table in ("kappa", "predictor_decay"):
            return (num(row[0]), num(row[1]), int(row[2]), row[3])
        if table == "spectrum":
            return (num(row[0]), num(row[1]), int(row[2]), row[3], int(row[4]))
        if table == "dynamics":
            point = (num(row[0]), num(row[1]))
            seen[point] = seen.get(point, -1) + 1
            return (*point, seen[point])
    except (ValueError, IndexError):
        pass
    return ("unparsable", index)


def check_structure(w: Workload, tables: Tables, exit_code: int) -> List[str]:
    fails = []
    if exit_code != w.expected_exit_code:
        fails.append(f"exit code {exit_code}, expected {w.expected_exit_code}")
    extra = set(tables) - set(w.tables)
    if extra:
        fails.append(f"unexpected tables {sorted(extra)}")
    expected = w.expected_keys()
    for table in w.tables:
        if table not in tables:
            fails.append(f"{table}: table missing")
            continue
        header, rows = tables[table]
        if header != COLUMNS[table]:
            fails.append(f"{table}: columns {header}")
            continue
        seen: dict = {}
        keys = [_row_key(table, r, i, len(w.grid), seen) for i, r in enumerate(rows)]
        if keys != expected[table]:
            bad = next((i for i, (a, b) in enumerate(zip(keys, expected[table])) if a != b),
                       min(len(keys), len(expected[table])))
            fails.append(f"{table}: row keys differ from row {bad} "
                         f"({len(keys)} rows, expected {len(expected[table])})")
            continue
        for key, row in zip(keys, rows):
            got, want = error_type(row[-1]), w.expected_errors.get((table, key))
            if got != want:
                fails.append(f"{table} {key}: error type {got}, expected {want}")
    return fails


def _close(a: Optional[float], b: float, rel: float, floor: float = 0.0) -> bool:
    return a is not None and abs(a - b) <= rel * abs(b) + floor


def _as_dicts(tables: Tables, table: str) -> List[dict]:
    header, rows = tables[table]
    return [dict(zip(header, r)) for r in rows]


def check_values(w: Workload, tables: Tables) -> List[str]:
    """Invariants and closed forms; assumes check_structure passed."""
    fails = []
    n_grid = len(w.grid)
    if "phase_diagram" in tables:
        rows = _as_dicts(tables, "phase_diagram")
        for r in rows[:n_grid]:
            if r["error"]:
                continue
            q, c, chi1 = num(r["qstar"]), num(r["cstar"]), num(r["chi1"])
            want = ("ordered" if chi1 < 1 - PHASE_TOL else
                    "chaotic" if chi1 > 1 + PHASE_TOL else "critical")
            if not (q > 0 and math.isfinite(q)) or r["phase"] != want:
                fails.append(f"phase_diagram {r['sigma_w2']},{r['sigma_b2']}: "
                             f"qstar {q}, phase {r['phase']} at chi1 {chi1}")
            if (want == "chaotic") != (0.0 <= c < 1.0) or (want != "chaotic" and c != 1.0):
                fails.append(f"phase_diagram {r['sigma_w2']},{r['sigma_b2']}: cstar {c} "
                             f"in the {want} phase")
            if w.activation == "relu":
                sw2, sb2 = num(r["sigma_w2"]), num(r["sigma_b2"])
                if not (_close(q, sb2 / (1 - sw2 / 2), 1e-9) and _close(chi1, sw2 / 2, 1e-12)):
                    fails.append(f"phase_diagram {sw2},{sb2}: ReLU q* {q} / chi1 {chi1} "
                                 "off the closed form")
        for r in rows[n_grid:]:
            sw2 = num(r["sigma_w2"])
            if r["phase"] != "critical" or not (sw2 is not None and 1e-3 < sw2 < 20):
                fails.append(f"transition row {r}")
            elif w.activation == "relu" and abs(sw2 - 2.0) > 1e-8:
                fails.append(f"ReLU transition at sigma_w2 {sw2}, closed form 2")
            elif not r["error"] and abs(num(r["chi1"]) - 1.0) > 1e-6:
                fails.append(f"transition row chi1 {r['chi1']}")

    lam = {}
    if "kappa" in tables:
        for r in _as_dicts(tables, "kappa"):
            key = (r["sigma_w2"], r["sigma_b2"], int(r["depth"]), r["kind"])
            lmax, lbulk, lmin = num(r["lambda_max"]), num(r["lambda_bulk"]), num(r["lambda_min"])
            lam[key] = (lmax, lbulk, lmin)
            kappa = lmax / lmin if lmin > 0 else math.inf
            kbulk = lmax / lbulk if lbulk > 0 else math.inf
            ok = lmax > 0 and lmax >= lbulk >= lmin
            ok = ok and num(r["kappa"]) == kappa and num(r["kappa_bulk"]) == kbulk
            if r["kappa_pred"] and math.isfinite(kappa) and math.isfinite(num(r["kappa_pred"])):
                ok = ok and num(r["kappa_residual"]) == kappa - num(r["kappa_pred"])
            if not ok:
                fails.append(f"kappa {key}: inconsistent spectrum summary")

    if "spectrum" in tables:
        groups: Dict[tuple, List[float]] = {}
        for r in _as_dicts(tables, "spectrum"):
            key = (r["sigma_w2"], r["sigma_b2"], int(r["depth"]), r["kind"])
            groups.setdefault(key, []).append(num(r["eigenvalue"]))
        for key, eigs in groups.items():
            if any(a < b for a, b in zip(eigs, eigs[1:])):
                fails.append(f"spectrum {key}: eigenvalues not descending")
            if key in lam and lam[key] != (eigs[0], eigs[1], eigs[-1]):
                fails.append(f"spectrum {key}: disagrees with the kappa row")

    if "predictor_decay" in tables:
        for r in _as_dicts(tables, "predictor_decay"):
            norm = num(r["pred_norm"])
            if not r["error"] and not (norm is not None and 0 <= norm < math.inf):
                fails.append(f"predictor_decay {r}: bad norm")

    if "dynamics" in tables:
        import numpy as np

        times = np.logspace(-2.0, 2.0, DYNAMICS_TIMES)
        rows = _as_dicts(tables, "dynamics")
        for start in range(0, len(rows), DYNAMICS_TIMES):
            trace = rows[start:start + DYNAMICS_TIMES]
            point = (trace[0]["sigma_w2"], trace[0]["sigma_b2"])
            resid = [num(r["train_residual"]) for r in trace]
            if any(b > a * (1 + 1e-9) for a, b in zip(resid, resid[1:])):
                fails.append(f"dynamics {point}: train residual grows")
            if not all(_close(num(r["time"]), t, 1e-12) for r, t in zip(trace, times)):
                fails.append(f"dynamics {point}: sample times")
            deepest = lam.get((*point, max(w.depths), "ntk"))
            if deepest and any(num(r["eta"]) != 1.0 / deepest[0] for r in trace):
                fails.append(f"dynamics {point}: eta is not 1/lambda_max")
    return fails


def _kernel_rows(w: Workload, tables: Tables, sw2: float, sb2: float):
    """Emitted depth-1 (lambda_max, lambda_bulk, lambda_min, pred_norm) per kind."""
    out = {kind: [None] * 4 for kind in KINDS}
    if "kappa" in tables:
        for r in _as_dicts(tables, "kappa"):
            if (num(r["sigma_w2"]), num(r["sigma_b2"]), r["depth"]) == (sw2, sb2, "1"):
                out[r["kind"]][:3] = [num(r["lambda_max"]), num(r["lambda_bulk"]),
                                      num(r["lambda_min"])]
    if "predictor_decay" in tables:
        for r in _as_dicts(tables, "predictor_decay"):
            if (num(r["sigma_w2"]), num(r["sigma_b2"]), r["depth"]) == (sw2, sb2, "1"):
                out[r["kind"]][3] = num(r["pred_norm"])
    return out


def recompute(w: Workload, tables: Tables, seed: int) -> List[str]:
    """Recompute rows sampled by ``seed`` through the public API."""
    import numpy as np

    from ntkphase import (
        ActivationKernel, Hyperparams, analyze, critical_sigma_w2, init_cnn_kernels,
        init_kernels, normalize_inputs, normalize_inputs_cnn, readout, step_cnn, step_fcn,
    )
    from ntkphase.data import cnn_inputs, generate_data
    from ntkphase.predictor import center_labels

    fails = []
    rng = random.Random(seed)
    quad = dict(backend="quadrature", nodes=ORACLE_NODES)
    # The sweep evaluates tanh by 128-node quadrature, which is accurate to
    # about 4e-6 relative at q* ~ 2.8 (chi1 moves that much between 128 and
    # 256 nodes); the erf and ReLU closed forms match 160-node quadrature to
    # ~1e-13, and a closed-form recompute repeats the sweep's arithmetic.
    tanh = w.activation == "tanh"
    rel_phase = 1e-5 if tanh else 1e-8
    rel_kernel = 1e-5 if tanh else 1e-11

    if "phase_diagram" in tables:
        rows = _as_dicts(tables, "phase_diagram")
        for r in rng.sample(rows[:len(w.grid)], min(2, len(w.grid))):
            h = Hyperparams(num(r["sigma_w2"]), num(r["sigma_b2"]), w.activation)
            rep = analyze(h, **quad)
            for col in ("qstar", "cstar", "chi1", "chi_c"):
                if not _close(num(r[col]), getattr(rep, col), rel_phase, 1e-12):
                    fails.append(f"phase_diagram {r['sigma_w2']},{r['sigma_b2']}: {col} "
                                 f"{r[col]} vs quadrature {getattr(rep, col)!r}")
        if w.activation != "relu":  # the ReLU line has its closed form in check_values
            for r in rows[len(w.grid):]:
                sw2 = critical_sigma_w2(num(r["sigma_b2"]),
                                        ActivationKernel(w.activation, 1.0, **quad))
                if not _close(num(r["sigma_w2"]), sw2, rel_phase, 1e-9):
                    fails.append(f"transition at {r['sigma_b2']}: {r['sigma_w2']} "
                                 f"vs quadrature {sw2!r}")

    if not {"kappa", "predictor_decay"} & set(tables):
        return fails
    sw2, sb2 = rng.choice(w.grid)
    h = Hyperparams(sw2, sb2, w.activation)
    if tanh:
        rep = analyze(h, **quad)
        k = ActivationKernel(w.activation, rep.qstar, **quad)
    else:
        rep = analyze(h)
        k = ActivationKernel(w.activation, rep.qstar)
    m = w.m
    if w.architecture == "fcn":
        data = generate_data(m, w.n, w.n_features, seed=seed)
        X = normalize_inputs(np.vstack([data.X_train, data.X_test]), rep.qstar)
        start = init_kernels(X)
        kp = step_fcn(start, h, k)
        Y = data.Y
    else:
        X = normalize_inputs_cnn(cnn_inputs(m + w.n, w.n_features, w.spatial_size, seed),
                                 rep.qstar)
        start = init_cnn_kernels(X, 1)
        kp = readout(step_cnn(start, h, k), "pool" if w.architecture == "cnn_p" else "flatten")
        y = np.ones((m, 1))
        y[m // 2:] = -1.0
        Y = center_labels(y)

    if k.backend == "closed":
        q0 = start.nngp.ravel()
        pick = np.random.default_rng(seed).choice(q0.size, min(256, q0.size), replace=False)
        sample = q0[pick]
        oracle = ActivationKernel(w.activation, rep.qstar, **quad)
        for name in ("t_map", "t_dot"):
            err = np.max(np.abs(getattr(k, name)(sample) - getattr(oracle, name)(sample)))
            if err > 1e-10 * max(1.0, rep.qstar):
                fails.append(f"{name} closed form off quadrature by {err:.3e}")

    emitted = _kernel_rows(w, tables, sw2, sb2)
    for kind in KINDS:
        K = getattr(kp, kind)
        eig = np.linalg.eigvalsh(K[:m, :m])[::-1]
        lmax, lbulk, lmin, norm = emitted[kind]
        if lmax is not None:
            for got, want in zip((lmax, lbulk, lmin), (eig[0], eig[1], eig[-1])):
                if not _close(got, float(want), 0.0, rel_kernel * eig[0]):
                    fails.append(f"kappa ({sw2},{sb2},1,{kind}): {got!r} vs recomputed {want!r}")
        cond = eig[0] / eig[-1] if eig[-1] > 0 else math.inf
        if norm is not None and cond < 1e10:
            pred = float(np.linalg.norm(K[m:, :m] @ np.linalg.solve(K[:m, :m], Y)))
            if not _close(norm, pred, rel_kernel * max(1.0, cond)):
                fails.append(f"predictor_decay ({sw2},{sb2},1,{kind}): {norm!r} "
                             f"vs recomputed {pred!r}")
    return fails


def failed_units(w: Workload, tables: Tables) -> int:
    """Grid points and transition rows with at least one error row."""
    units = set()
    for table in w.tables:
        if table not in tables:
            continue
        for i, row in enumerate(tables[table][1]):
            if row and row[-1]:
                transition = table == "phase_diagram" and i >= len(w.grid)
                units.add(("transition", row[1]) if transition else (row[0], row[1]))
    return len(units)
