"""Kernel trajectories, hyperparameter-grid sweeps and deterministic table
emission.

``_trajectory`` is the one pipeline from raw inputs to the joint NNGP/NTK
matrices along depth (normalize -> init -> propagate -> readout); the sweep,
``kappa_trajectory`` and ``predictor_decay`` all build their kernels through
it.

A sweep evaluates every (sigma_w2, sigma_b2) grid point independently:
phase analysis, kernel trajectories over the requested depths, spectrum
summaries with their asymptotic predictions, predictor-decay series and
training-dynamics traces.  Points run on a worker pool but results are
merged in grid order, and all randomness is Philox-counter based, so a
fixed config and seed produce byte-identical outputs at any thread count.

CSV files (RFC 4180, CRLF, 17 significant digits) are the primary format;
JSON files mirror the same tables and validate against the shipped schema
(``schemas/output_schema.json``).  A failure at one grid point fills that
point's ``error`` column and never aborts the sweep.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .activations import Activation, ActivationKernel
from .data import DataGenerator, SyntheticDataset, cnn_inputs, generate_data
from .errors import NtkPhaseError, UndefinedPredictionError
from .phase import (
    Architecture,
    Hyperparams,
    PhaseReport,
    analyze,
    critical_sigma_w2,
    predict_spectrum,
)
from .predictor import RegressionTask, center_labels, dynamics, mean_predict
from .propagation import (
    KernelPair,
    ReadoutMode,
    init_cnn_kernels,
    init_kernels,
    normalize_inputs,
    normalize_inputs_cnn,
    propagate_cnn,
    propagate_fcn,
    readout,
)
from .spectra import SpectrumSummary, spectrum

__all__ = [
    "SweepOutput",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "kappa_trajectory",
    "predictor_decay",
]


class SweepOutput(str, enum.Enum):
    KAPPA = "kappa"
    SPECTRUM = "spectrum"
    PREDICTOR_DECAY = "predictor_decay"
    PHASE_DIAGRAM = "phase_diagram"
    DYNAMICS_TRACE = "dynamics_trace"


_COLUMNS: Dict[SweepOutput, List[str]] = {
    SweepOutput.PHASE_DIAGRAM: [
        "sigma_w2", "sigma_b2", "qstar", "cstar", "chi1", "chi_c",
        "phase", "xi1", "xi_c", "xi_star", "error",
    ],
    SweepOutput.KAPPA: [
        "sigma_w2", "sigma_b2", "depth", "kind", "lambda_max", "lambda_bulk",
        "lambda_min", "kappa", "kappa_bulk", "kappa_pred", "kappa_residual", "error",
    ],
    SweepOutput.SPECTRUM: [
        "sigma_w2", "sigma_b2", "depth", "kind", "eigenvalue_index", "eigenvalue", "error",
    ],
    SweepOutput.PREDICTOR_DECAY: [
        "sigma_w2", "sigma_b2", "depth", "kind", "pred_norm", "error",
    ],
    SweepOutput.DYNAMICS_TRACE: [
        "sigma_w2", "sigma_b2", "time", "eta", "train_residual", "test_norm", "error",
    ],
}

_FILENAMES: Dict[SweepOutput, str] = {
    SweepOutput.PHASE_DIAGRAM: "phase_diagram",
    SweepOutput.KAPPA: "kappa",
    SweepOutput.SPECTRUM: "spectrum",
    SweepOutput.PREDICTOR_DECAY: "predictor_decay",
    SweepOutput.DYNAMICS_TRACE: "dynamics",
}


@dataclass(frozen=True)
class SweepConfig:
    """Complete description of one sweep; JSON-serializable field for field."""

    activation: Activation = Activation.ERF
    architecture: Architecture = Architecture.FCN
    sigma_w2_grid: Sequence[float] = (1.0, 2.0, 4.0)
    sigma_b2_grid: Sequence[float] = (0.5,)
    depths: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
    m: int = 12
    n: int = 8
    spatial_size: int = 6
    filter_halfwidth: int = 1
    ridge: float = 0.0
    seed: int = 0
    n_features: int = 32
    generator: DataGenerator = DataGenerator.GAUSSIAN_IID
    outputs: Sequence[SweepOutput] = (
        SweepOutput.PHASE_DIAGRAM,
        SweepOutput.KAPPA,
        SweepOutput.PREDICTOR_DECAY,
    )

    def __post_init__(self):
        object.__setattr__(self, "activation", Activation(self.activation))
        object.__setattr__(self, "architecture", Architecture(self.architecture))
        object.__setattr__(self, "generator", DataGenerator(self.generator))
        object.__setattr__(self, "sigma_w2_grid", tuple(float(v) for v in self.sigma_w2_grid))
        object.__setattr__(self, "sigma_b2_grid", tuple(float(v) for v in self.sigma_b2_grid))
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        object.__setattr__(self, "outputs", tuple(SweepOutput(o) for o in self.outputs))
        if not self.sigma_w2_grid or not self.sigma_b2_grid:
            raise ValueError("grids must be nonempty")
        if not all(0.0 <= v < math.inf for v in self.sigma_w2_grid + self.sigma_b2_grid):
            raise ValueError("grid values must be finite and nonnegative")
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError("ridge must be finite and nonnegative")
        if list(self.depths) != sorted(set(self.depths)) or self.depths[0] < 1:
            raise ValueError("depths must be strictly increasing positive integers")
        if self.m < 2 or self.m % 2:
            raise ValueError("m must be an even integer >= 2")
        if self.n < 1:
            raise ValueError("need at least one test point")

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        with open(path) as fh:
            return cls(**json.load(fh))

    def to_jsonable(self) -> dict:
        out = asdict(self)
        for key, val in out.items():
            if isinstance(val, enum.Enum):
                out[key] = val.value
            elif isinstance(val, tuple):
                out[key] = [v.value if isinstance(v, enum.Enum) else v for v in val]
        return out


@dataclass(frozen=True)
class SweepResult:
    paths: List[Path]
    n_point_errors: int


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.17g}"


def _write_csv(path: Path, columns: List[str], rows: List[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, table: str, columns: List[str], rows: List[list]) -> None:
    def jsonable(v):
        if v is None or isinstance(v, str):
            return v
        if isinstance(v, enum.Enum):
            return v.value
        if isinstance(v, (int, np.integer)):
            return int(v)
        v = float(v)
        if math.isnan(v) or math.isinf(v):
            return _fmt(v)  # JSON has no literal for these
        return v

    doc = {"table": table, "columns": columns, "rows": [[jsonable(v) for v in r] for r in rows]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _dataset(cfg: SweepConfig) -> SyntheticDataset:
    if cfg.architecture is Architecture.FCN:
        return generate_data(cfg.m, cfg.n, cfg.n_features, cfg.generator, cfg.seed)
    X = cnn_inputs(cfg.m + cfg.n, cfg.n_features, cfg.spatial_size, cfg.seed)
    y = np.ones((cfg.m, 1))
    y[cfg.m // 2 :] = -1.0
    return SyntheticDataset(X[: cfg.m], X[cfg.m :], center_labels(y), cfg.generator)


def _hyperparams(cfg: SweepConfig, sw2: float, sb2: float) -> Hyperparams:
    return Hyperparams(
        sigma_w2=sw2,
        sigma_b2=sb2,
        activation=cfg.activation,
        architecture=cfg.architecture,
        spatial_size=cfg.spatial_size if cfg.architecture is not Architecture.FCN else 1,
    )


def _trajectory(
    h: Hyperparams,
    k: ActivationKernel,
    X: np.ndarray,
    depths: Sequence[int],
    filter_halfwidth: int,
) -> List[KernelPair]:
    """Joint NNGP/NTK matrices of the raw inputs ``X`` at the requested depths.

    ``X`` holds rows for FCN and (samples, channels, pixels) for the
    convolutional architectures, which are read out per ``h.architecture``
    (pool for cnn_p, flatten for cnn_f).  Inputs are normalized to
    mean-square ``k.qstar``, the solved variance fixed point.
    """
    if h.architecture is Architecture.FCN:
        return propagate_fcn(init_kernels(normalize_inputs(X, k.qstar)), h, k, depths)
    mode = ReadoutMode.POOL if h.architecture is Architecture.CNN_P else ReadoutMode.FLATTEN
    ck = init_cnn_kernels(normalize_inputs_cnn(X, k.qstar), filter_halfwidth)
    return [readout(c, mode) for c in propagate_cnn(ck, h, k, depths)]


def kappa_trajectory(
    h: Hyperparams,
    X: np.ndarray,
    depths: Sequence[int],
    *,
    backend: str = "closed",
    nodes: int = 128,
    filter_halfwidth: int = 1,
    report: Optional[PhaseReport] = None,
) -> Dict[str, List[SpectrumSummary]]:
    """Spectrum summaries of both kernels along a depth trajectory.

    ``X`` is the raw dataset (see ``_trajectory``); the summaries cover all
    of its rows.
    """
    if any(d2 <= d1 for d1, d2 in zip(depths, list(depths)[1:])):
        raise ValueError("depths must be strictly increasing")
    rep = report if report is not None else analyze(h, backend, nodes)
    k = ActivationKernel(h.activation, rep.qstar, backend, nodes)
    pairs = _trajectory(h, k, X, depths, filter_halfwidth)
    return {
        "ntk": [spectrum(kp.ntk, kp.depth) for kp in pairs],
        "nngp": [spectrum(kp.nngp, kp.depth) for kp in pairs],
    }


def predictor_decay(
    h: Hyperparams,
    X_train: np.ndarray,
    X_test: np.ndarray,
    Y: np.ndarray,
    depths: Sequence[int],
    *,
    backend: str = "closed",
    nodes: int = 128,
    filter_halfwidth: int = 1,
    report: Optional[PhaseReport] = None,
) -> Dict[str, List[Tuple[int, float]]]:
    """Frobenius norm of the zero-ridge mean prediction along a trajectory.

    Returns series for both kernels keyed "ntk"/"nngp"; labels are centered
    internally and the raw train and test inputs propagated jointly.
    """
    rep = report if report is not None else analyze(h, backend, nodes)
    k = ActivationKernel(h.activation, rep.qstar, backend, nodes)
    Yc = center_labels(Y)
    m = np.asarray(X_train).shape[0]
    X = np.concatenate([X_train, X_test])
    out: Dict[str, List[Tuple[int, float]]] = {"ntk": [], "nngp": []}
    for kp in _trajectory(h, k, X, depths, filter_halfwidth):
        for kind in out:
            K = getattr(kp, kind)
            task = RegressionTask(K_dd=K[:m, :m], K_td=K[m:, :m], Y=Yc)
            out[kind].append((kp.depth, float(np.linalg.norm(mean_predict(task)))))
    return out


def _point_rows(cfg: SweepConfig, data: SyntheticDataset, sw2: float, sb2: float):
    """All table rows for one grid point; failures land in the error column."""
    rows: Dict[SweepOutput, List[list]] = {out: [] for out in cfg.outputs}

    def error_rows(message: str):
        for out in cfg.outputs:
            pad = [None] * (len(_COLUMNS[out]) - 3)
            rows[out].append([sw2, sb2, *pad, message])

    try:
        h = _hyperparams(cfg, sw2, sb2)
        rep = analyze(h)
    except (NtkPhaseError, ValueError) as exc:
        error_rows(f"{type(exc).__name__}: {exc}")
        return rows

    if SweepOutput.PHASE_DIAGRAM in rows:
        rows[SweepOutput.PHASE_DIAGRAM].append(
            [sw2, sb2, rep.qstar, rep.cstar, rep.chi1, rep.chi_c,
             rep.phase, rep.xi1, rep.xi_c, rep.xi_star, None]
        )

    needs_kernels = {
        SweepOutput.KAPPA, SweepOutput.SPECTRUM,
        SweepOutput.PREDICTOR_DECAY, SweepOutput.DYNAMICS_TRACE,
    } & set(rows)
    if not needs_kernels:
        return rows

    try:
        k = ActivationKernel(h.activation, rep.qstar, nodes=128)
        X = np.concatenate([data.X_train, data.X_test])
        pairs = _trajectory(h, k, X, cfg.depths, cfg.filter_halfwidth)

        m = cfg.m
        for kp in pairs:
            for kind in ("ntk", "nngp"):
                K = getattr(kp, kind)
                if SweepOutput.KAPPA in rows or SweepOutput.SPECTRUM in rows:
                    summ = spectrum(K[:m, :m], kp.depth)
                if SweepOutput.KAPPA in rows:
                    try:
                        pred = predict_spectrum(rep, h, m, kp.depth + 1, kind).kappa
                        resid = summ.kappa - pred
                    except (UndefinedPredictionError, OverflowError):
                        pred = resid = None
                    rows[SweepOutput.KAPPA].append(
                        [sw2, sb2, kp.depth, kind, summ.lambda_max, summ.lambda_bulk,
                         summ.lambda_min, summ.kappa, summ.kappa_bulk, pred, resid, None]
                    )
                if SweepOutput.SPECTRUM in rows:
                    for idx, eig in enumerate(summ.eigenvalues):
                        rows[SweepOutput.SPECTRUM].append(
                            [sw2, sb2, kp.depth, kind, idx, eig, None]
                        )
                if SweepOutput.PREDICTOR_DECAY in rows:
                    task = RegressionTask(
                        K_dd=K[:m, :m], K_td=K[m:, :m], Y=data.Y, ridge=cfg.ridge
                    )
                    try:
                        norm = float(np.linalg.norm(mean_predict(task)))
                        rows[SweepOutput.PREDICTOR_DECAY].append(
                            [sw2, sb2, kp.depth, kind, norm, None]
                        )
                    except NtkPhaseError as exc:
                        rows[SweepOutput.PREDICTOR_DECAY].append(
                            [sw2, sb2, kp.depth, kind, None, f"{type(exc).__name__}: {exc}"]
                        )

        if SweepOutput.DYNAMICS_TRACE in rows:
            kp = pairs[-1]
            K = kp.ntk
            summ = spectrum(K[:m, :m], kp.depth)
            eta = 1.0 / summ.lambda_max
            times = np.logspace(-2.0, 2.0, 9)
            task = RegressionTask(K_dd=K[:m, :m], K_td=K[m:, :m], Y=data.Y)
            trace = dynamics(task, eta, times)
            for t, mu_tr, mu_te in zip(trace.times, trace.mu_train, trace.mu_test):
                rows[SweepOutput.DYNAMICS_TRACE].append(
                    [sw2, sb2, t, eta, float(np.linalg.norm(mu_tr - data.Y)),
                     float(np.linalg.norm(mu_te)), None]
                )
    except (NtkPhaseError, np.linalg.LinAlgError, ValueError) as exc:
        error_rows(f"{type(exc).__name__}: {exc}")
    return rows


def _transition_rows(cfg: SweepConfig) -> List[list]:
    """Transition-curve samples for the phase-diagram table (phase=critical)."""
    out = []
    probe = ActivationKernel(cfg.activation, 1.0)
    for sb2 in cfg.sigma_b2_grid:
        try:
            sw2_c = critical_sigma_w2(sb2, probe)
        except (NtkPhaseError, ValueError) as exc:
            out.append([None, sb2] + [None] * 8 + [f"{type(exc).__name__}: {exc}"])
            continue
        try:
            rep = analyze(_hyperparams(cfg, sw2_c, sb2))
            out.append(
                [sw2_c, sb2, rep.qstar, rep.cstar, rep.chi1, rep.chi_c,
                 rep.phase, rep.xi1, rep.xi_c, rep.xi_star, None]
            )
        except (NtkPhaseError, ValueError) as exc:
            # keep the solved transition location even when the fixed point
            # at it is degenerate (ReLU at zero bias variance)
            out.append(
                [sw2_c, sb2, None, None, None, None, "critical", None, None, None,
                 f"{type(exc).__name__}: {exc}"]
            )
    return out


def run_sweep(
    cfg: SweepConfig,
    out_dir,
    threads: int = 1,
    formats: Sequence[str] = ("csv",),
) -> SweepResult:
    """Evaluate the grid and write one file per requested output kind."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = _dataset(cfg)
    grid = [(sw2, sb2) for sb2 in cfg.sigma_b2_grid for sw2 in cfg.sigma_w2_grid]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda p: _point_rows(cfg, data, *p), grid))
    else:
        results = [_point_rows(cfg, data, *point) for point in grid]

    tables: Dict[SweepOutput, List[list]] = {out: [] for out in cfg.outputs}
    n_errors = 0
    for point_rows in results:  # merged in grid order: deterministic
        for out, rows in point_rows.items():
            tables[out].extend(rows)
            n_errors += sum(1 for r in rows if r[-1] is not None)

    if SweepOutput.PHASE_DIAGRAM in tables:
        transition = _transition_rows(cfg)
        tables[SweepOutput.PHASE_DIAGRAM].extend(transition)
        n_errors += sum(1 for r in transition if r[-1] is not None)

    paths = []
    for out, rows in tables.items():
        name = _FILENAMES[out]
        if "csv" in formats:
            p = out_dir / f"{name}.csv"
            _write_csv(p, _COLUMNS[out], rows)
            paths.append(p)
        if "json" in formats:
            p = out_dir / f"{name}.json"
            _write_json(p, name, _COLUMNS[out], rows)
            paths.append(p)
    return SweepResult(paths=paths, n_point_errors=n_errors)
