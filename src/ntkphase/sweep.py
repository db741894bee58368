"""Kernel trajectories, hyperparameter-grid sweeps and deterministic table
emission.

``_trajectory`` is the one pipeline from raw inputs to the joint NNGP/NTK
matrices along depth (normalize -> init -> propagate -> readout); the sweep,
``kappa_trajectory`` and ``predictor_decay`` all build their kernels through
it.

A sweep evaluates every (sigma_w2, sigma_b2) grid point independently:
phase analysis, kernel trajectories over the requested depths, spectrum
summaries with their asymptotic predictions, predictor-decay series and
training-dynamics traces.  Points run in grid order on the calling thread
(a worker pool was no faster on any activation), all randomness is
Philox-counter based, and the kernel tables, ``kappa_trajectory`` and
``predictor_decay`` do their dense algebra at one BLAS thread (the policy
is stated once, in ``_one_blas_thread``), so a fixed config and seed
produce byte-identical outputs on any number of cores.

CSV files (RFC 4180, CRLF, 17 significant digits) are the primary format;
JSON files mirror the same tables and validate against the shipped schema
(``schemas/output_schema.json``).  A failure at one grid point fills that
point's ``error`` column and never aborts the sweep.

Each ``SweepConfig`` value is cast to the type of its field's default, from
which the CLI also derives its flags.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import enum
import functools
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .activations import Activation, ActivationKernel
from .data import DataGenerator, _balanced_labels, center_labels, cnn_inputs, generate_data
from .errors import NtkPhaseError
from .phase import (
    MAX_VARIANCE,
    Architecture,
    Hyperparams,
    PhaseReport,
    analyze,
    critical_sigma_w2,
    predict_spectrum,
)
from .predictor import RegressionTask, dynamics, mean_predict
from .propagation import (
    KernelPair,
    ReadoutMode,
    _check_depths,
    _check_window,
    init_cnn_kernels,
    init_kernels,
    normalize_inputs,
    normalize_inputs_cnn,
    paper_layer,
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


# Config fields every run reads (perfbench passes --seed to phase-only runs too), and
# those every kernel table reads beside its architecture's input fields
_RUN_READS = {"activation", "sigma_w2_grid", "sigma_b2_grid", "outputs", "seed"}
_KERNEL_READS = {"architecture", "depths", "m", "n_features"}

# output -> (file stem, further fields read, columns); columns end in the row's "error"
_TABLES: Dict[SweepOutput, Tuple[str, set, List[str]]] = {
    SweepOutput.PHASE_DIAGRAM: ("phase_diagram", set(), [
        "sigma_w2", "sigma_b2", "qstar", "cstar", "chi1", "chi_c",
        "phase", "xi1", "xi_c", "xi_star", "error",
    ]),
    SweepOutput.KAPPA: ("kappa", _KERNEL_READS, [
        "sigma_w2", "sigma_b2", "depth", "kind", "lambda_max", "lambda_bulk",
        "lambda_min", "kappa", "kappa_bulk", "kappa_pred", "kappa_residual", "error",
    ]),
    SweepOutput.SPECTRUM: ("spectrum", _KERNEL_READS, [
        "sigma_w2", "sigma_b2", "depth", "kind", "eigenvalue_index", "eigenvalue", "error",
    ]),
    SweepOutput.PREDICTOR_DECAY: ("predictor_decay", _KERNEL_READS | {"n", "ridge"}, [
        "sigma_w2", "sigma_b2", "depth", "kind", "pred_norm", "error",
    ]),
    SweepOutput.DYNAMICS_TRACE: ("dynamics", _KERNEL_READS | {"n"}, [  # gradient flow, no ridge
        "sigma_w2", "sigma_b2", "time", "eta", "train_residual", "test_norm", "error",
    ]),
}


def _cast(default, value):
    """``value`` as the type of ``default``; integers by ``operator.index``; 12.0 and True fail."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return operator.index(value) if isinstance(default, int) else type(default)(value)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep, JSON-serializable field for field; a field it does not read keeps its default."""

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
        for f in fields(self):  # a tuple field's items take the type of its default's first item
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                if isinstance(value, str):  # would split into characters: "14" -> (1.0, 4.0)
                    raise TypeError(f"{f.name} must be a list, not a string")
                value = tuple(_cast(f.default[0], v) for v in value)
            else:
                value = _cast(f.default, value)
            object.__setattr__(self, f.name, value)
        if not self.sigma_w2_grid or not self.sigma_b2_grid:
            raise ValueError("grids must be nonempty")
        if not self.outputs:
            raise ValueError("outputs must be nonempty")
        if not all(0.0 <= v <= MAX_VARIANCE for v in self.sigma_w2_grid + self.sigma_b2_grid):
            raise ValueError(f"grid values must lie in [0, {MAX_VARIANCE:g}]")
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError("ridge must be finite and nonnegative")
        if not self.depths:
            raise ValueError("depths must be nonempty")
        _check_depths(self.depths, 1)
        if self.m < 2 or self.m % 2:
            raise ValueError("m must be an even integer >= 2")
        for name in ("n", "n_features", "spatial_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.filter_halfwidth < 0:
            raise ValueError("filter_halfwidth must be nonnegative")
        if not 0 <= self.seed < 2**64:  # the Philox key is one unsigned 64-bit word
            raise ValueError("seed must lie in [0, 2**64)")
        read = _RUN_READS.union(*(_TABLES[out][1] for out in self.outputs))
        if "architecture" in read:
            read |= ({"generator"} if self.architecture is Architecture.FCN
                     else {"spatial_size", "filter_halfwidth"})
        unread = [f.name for f in fields(self)
                  if f.name not in read and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"this run does not read {', '.join(unread)}; leave at the default")
        if "spatial_size" in read:
            _check_window(self.spatial_size, self.filter_halfwidth)

    def to_jsonable(self) -> dict:
        return json.loads(json.dumps(asdict(self)))  # enums as their values, tuples as lists


@dataclass(frozen=True)
class SweepResult:
    paths: List[Path]
    n_point_errors: int


def _fmt(value) -> str:
    """A CSV cell; floats in 17 significant digits (``nan``, ``inf`` and ``-inf`` as spelled)."""
    if value is None:
        return ""
    if isinstance(value, str):  # csv writes a str enum such as Phase as its value
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: Path, columns: List[str], rows: List[list]) -> None:
    f = "%.17g".__mod__  # _fmt of the common cell types by exact type; any other goes to _fmt
    cell = {float: f, np.float64: f, int: str, str: str}.get
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        writer.writerows([cell(type(v), _fmt)(v) for v in row] for row in rows)


def _write_json(path: Path, table: str, columns: List[str], rows: List[list]) -> None:
    def jsonable(v):
        if v is None or isinstance(v, str):  # a str enum such as Phase dumps as its value
            return v
        if isinstance(v, (int, np.integer)):
            return int(v)
        v = float(v)
        return v if math.isfinite(v) else _fmt(v)  # JSON has no literal for nan or inf

    doc = {"table": table, "columns": columns, "rows": [[jsonable(v) for v in r] for r in rows]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _dataset(cfg: SweepConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The raw inputs, ``cfg.m`` train rows then ``cfg.n`` test rows, and the centered labels."""
    if cfg.architecture is Architecture.FCN:
        data = generate_data(cfg.m, cfg.n, cfg.n_features, cfg.generator, cfg.seed)
        return np.concatenate([data.X_train, data.X_test]), data.Y
    X = cnn_inputs(cfg.m + cfg.n, cfg.n_features, cfg.spatial_size, cfg.seed)
    return X, center_labels(_balanced_labels(cfg.m))


@functools.lru_cache(maxsize=None)
def _numpy_openblas_threads() -> Optional[tuple]:
    """``(get, set)`` thread-count functions of numpy's OpenBLAS, or None.

    They are looked up through numpy's loaded ``numpy.linalg._umath_linalg``
    extension, whose handle also searches the libraries it links, so the
    lookup finds numpy's OpenBLAS and no other.  That library exports
    ``{openblas,scipy_openblas}_{get,set}_num_threads``, with a ``64_``
    suffix in a 64-bit-integer build.  With another BLAS or another numpy
    layout there is none.  Looked up once per process.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in itertools.product(("openblas", "scipy_openblas"), ("", "64_")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, then restore its count.

    This is the package's one-thread policy.  Every BLAS and LAPACK call of
    the kernel tables is numpy's (``numpy.linalg``).  A 128 x 128
    eigensolve or Cholesky factorization wakes the library's worker
    threads, which then spin while idle (a 2-core dense sweep burned about
    twice its wall time in CPU), and a threaded Cholesky rounds differently
    with the thread count.  On one thread the kernel tables cost one core
    and read the same on any host.  The count is process-wide and restored
    also when the block raises.  With no OpenBLAS found in numpy (another
    BLAS, such as MKL or Accelerate) this changes nothing, and a threaded
    solve may round differently from host to host; it has been checked on
    Linux only.  A CLI process has loaded numpy's OpenBLAS at one thread
    already (``ntkphase.cli``), so there the pin changes no count unless
    the environment asked for more; a library caller's numpy starts at the
    host's count, and the pin is what it relies on.  A phase-only run does
    no dense algebra and never pins.
    """
    controls = _numpy_openblas_threads()
    if controls is None:
        yield
        return
    get, put = controls
    count = get()
    put(1)
    try:
        yield
    finally:
        put(count)


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
    qstar: float,
    X: np.ndarray,
    depths: Sequence[int],
    filter_halfwidth: int,
    m: Optional[int] = None,
    test_rows: bool = False,
) -> List[KernelPair]:
    """Joint NNGP/NTK matrices of the raw inputs ``X`` at the requested depths.

    ``X`` holds rows for FCN and (samples, channels, pixels) for the
    convolutional architectures, which are read out per ``h.architecture``
    (pool for cnn_p, flatten for cnn_f).  Inputs are normalized to
    mean-square ``qstar``, the solved variance fixed point, and the pixel
    variances (the FCN diagonal, offset 0 of each CNN pair (i, i)) are set
    to it, as ``step_cnn`` sets each later layer's.  Pixel offsets
    evolve independently and flatten reads only offset 0, so cnn_f forms
    and propagates offset 0 alone.  The walk starts from one array (the
    depth-0 NTK is the NNGP), which it is handed and steps in place, and
    reads each depth out as it is reached, so two state-sized arrays live
    at once, three past the depth where the NNGP repeats.  From there the
    walk reuses the maps, and past the depth where the whole state repeats
    it stops stepping (see ``ntkphase.propagation``); the pairs keep the
    full steps' bits.

    ``m`` (all samples by default) marks the first m samples as the train
    rows.  Without ``test_rows`` only the train rows' pairs propagate, into
    m x m matrices.  With it, a CNN forms and propagates only the pairs
    (i, j) with i < m, a prefix in pair order holding K_dd and K_td, and
    reads NaN in K_tt; an FCN propagates every pair.  Every entry evolves
    on its own, so the kept entries match those of the full run bit for
    bit.  A CNN pair's Gram block is its own product of two samples, but
    the FCN Gram is one product of every row, so slicing ``X`` would not
    keep its bits (fewer rows may take another gemm path).
    """
    k = ActivationKernel(h.activation, qstar)
    samples = None if test_rows else m  # the read-out matrices' samples; None for all
    if h.architecture is Architecture.FCN:
        if filter_halfwidth != 1:
            raise ValueError("an FCN does not read filter_halfwidth; leave it at the default 1")
        start = init_kernels(normalize_inputs(X, qstar)).nngp[:samples, :samples]
        np.fill_diagonal(start, qstar)
        return propagate_fcn(KernelPair(start, start, 0), h, k, depths)
    if h.spatial_size != np.shape(X)[-1]:
        raise ValueError(f"spatial_size {h.spatial_size} is not the {np.shape(X)[-1]} pixels of X")
    mode = ReadoutMode.POOL if h.architecture is Architecture.CNN_P else ReadoutMode.FLATTEN
    X = normalize_inputs_cnn(X, qstar)[:samples]
    n_pairs = None  # every pair of X, or with test rows the pairs (i, j) with i < m
    if samples is None and m is not None:
        n_pairs = m * len(X) - m * (m - 1) // 2
    n_offsets = None if mode is ReadoutMode.POOL else 1
    ck = init_cnn_kernels(X, filter_halfwidth, n_pairs, n_offsets)
    i, j = np.triu_indices(ck.m)  # pair order
    ck.nngp[(i == j)[:len(ck.nngp)], 0] = qstar  # the pixel variances, as step_cnn pins them
    pairs = propagate_cnn(ck, h, k, depths, emit=functools.partial(readout, mode=mode),
                          own_start=True)
    return list(pairs)


@_one_blas_thread()
def kappa_trajectory(
    h: Hyperparams,
    X: np.ndarray,
    depths: Sequence[int],
    *,
    filter_halfwidth: int = 1,
) -> Dict[str, List[SpectrumSummary]]:
    """Spectrum summaries of both kernels along a depth trajectory.

    ``X`` is the raw dataset (see ``_trajectory``); the summaries cover all
    of its rows.
    """
    pairs = _trajectory(h, analyze(h).qstar, X, depths, filter_halfwidth)
    return {
        "ntk": [spectrum(kp.ntk, kp.depth) for kp in pairs],
        "nngp": [spectrum(kp.nngp, kp.depth) for kp in pairs],
    }


@_one_blas_thread()
def predictor_decay(
    h: Hyperparams,
    X_train: np.ndarray,
    X_test: np.ndarray,
    Y: np.ndarray,
    depths: Sequence[int],
    *,
    filter_halfwidth: int = 1,
) -> Dict[str, List[Tuple[int, float]]]:
    """Frobenius norm of the zero-ridge mean prediction along a trajectory.

    Returns series for both kernels keyed "ntk"/"nngp"; labels are centered
    internally and the raw train and test inputs propagated jointly.
    """
    Yc = center_labels(Y)
    m = np.asarray(X_train).shape[0]
    X = np.concatenate([X_train, X_test])
    out: Dict[str, List[Tuple[int, float]]] = {"ntk": [], "nngp": []}
    for kp in _trajectory(h, analyze(h).qstar, X, depths, filter_halfwidth, m, test_rows=True):
        for kind in out:
            task = _task(getattr(kp, kind), m, Yc)
            out[kind].append((kp.depth, float(np.linalg.norm(mean_predict(task)))))
    return out


def _task(K: np.ndarray, m: int, Y: np.ndarray, ridge: float = 0.0) -> RegressionTask:
    """Regression on a joint kernel whose first ``m`` rows are the training inputs."""
    return RegressionTask(K_dd=K[:m, :m], K_td=K[m:, :m], Y=Y, ridge=ridge)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _error_row(out: SweepOutput, sw2: Optional[float], sb2: float, exc: Exception) -> list:
    """A row of table ``out`` holding only its grid point and the error."""
    return [sw2, sb2] + [None] * (len(_TABLES[out][2]) - 3) + [_error_text(exc)]


def _phase_row(sw2: float, sb2: float, rep: PhaseReport) -> list:
    return [sw2, sb2, rep.qstar, rep.cstar, rep.chi1, rep.chi_c,
            rep.phase, rep.xi1, rep.xi_c, rep.xi_star, None]


def _point_rows(cfg: SweepConfig, data: Optional[tuple], sw2: float, sb2: float):
    """All table rows for one grid point; failures land in the error column.

    A failed phase analysis gives one error row in every table.  A later
    failure gives one in each kernel table only, since the phase row is
    already complete.
    """
    try:
        h = _hyperparams(cfg, sw2, sb2)
        rep = analyze(h)
    except (NtkPhaseError, ValueError) as exc:
        return {out: [_error_row(out, sw2, sb2, exc)] for out in cfg.outputs}

    rows: Dict[SweepOutput, List[list]] = {out: [] for out in cfg.outputs}
    if SweepOutput.PHASE_DIAGRAM in rows:
        rows[SweepOutput.PHASE_DIAGRAM].append(_phase_row(sw2, sb2, rep))
    kernel_outputs = [out for out in rows if out is not SweepOutput.PHASE_DIAGRAM]
    if not kernel_outputs:
        return rows

    try:
        X, Y = data
        # a table that reads test rows reads n; without one, only the m train samples propagate
        reads_test = any("n" in _TABLES[out][1] for out in kernel_outputs)
        pairs = _trajectory(h, rep.qstar, X, cfg.depths, cfg.filter_halfwidth, cfg.m, reads_test)

        m = cfg.m
        for kp in pairs:
            for kind in ("ntk", "nngp"):
                K = getattr(kp, kind)
                if SweepOutput.KAPPA in rows or SweepOutput.SPECTRUM in rows:
                    summ = spectrum(K[:m, :m], kp.depth)
                if SweepOutput.KAPPA in rows:
                    pred = predict_spectrum(rep, h, m, paper_layer(kp.depth), kind).kappa
                    resid = summ.kappa - pred
                    if math.isnan(resid):  # inf - inf (sigma_w2 = 0) has no value: an empty cell
                        resid = None
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
                    try:
                        norm = float(np.linalg.norm(mean_predict(_task(K, m, Y, cfg.ridge))))
                        row = [sw2, sb2, kp.depth, kind, norm, None]
                    except NtkPhaseError as exc:
                        row = [sw2, sb2, kp.depth, kind, None, _error_text(exc)]
                    rows[SweepOutput.PREDICTOR_DECAY].append(row)

        if SweepOutput.DYNAMICS_TRACE in rows:
            kp = pairs[-1]
            eta = 1.0 / spectrum(kp.ntk[:m, :m], kp.depth).lambda_max
            times = np.logspace(-2.0, 2.0, 9)
            trace = dynamics(_task(kp.ntk, m, Y), eta, times)
            for t, mu_tr, mu_te in zip(trace.times, trace.mu_train, trace.mu_test):
                rows[SweepOutput.DYNAMICS_TRACE].append(
                    [sw2, sb2, t, eta, float(np.linalg.norm(mu_tr - Y)),
                     float(np.linalg.norm(mu_te)), None]
                )
    except (NtkPhaseError, ValueError) as exc:  # numpy's LinAlgError is a ValueError
        for out in kernel_outputs:
            rows[out].append(_error_row(out, sw2, sb2, exc))
    return rows


def _transition_rows(cfg: SweepConfig) -> List[list]:
    """Transition-curve samples for the phase-diagram table (phase=critical)."""
    out = []
    probe = ActivationKernel(cfg.activation, 1.0)
    for sb2 in cfg.sigma_b2_grid:
        sw2_c = critical_sigma_w2(sb2, probe)
        try:
            out.append(_phase_row(sw2_c, sb2, analyze(_hyperparams(cfg, sw2_c, sb2))))
        except (NtkPhaseError, ValueError) as exc:
            # keep the solved transition location even when there is no
            # usable fixed point at it (ReLU with bias, Erf/Tanh at q* = 0)
            row = _error_row(SweepOutput.PHASE_DIAGRAM, sw2_c, sb2, exc)
            row[6] = "critical"  # the phase column
            out.append(row)
    return out


def run_sweep(cfg: SweepConfig, out_dir, *, formats: Sequence[str] = ("csv",)) -> SweepResult:
    """Evaluate the grid and write one file per requested output kind and format."""
    if not formats or not set(formats) <= {"csv", "json"}:
        raise ValueError(f"formats must name csv, json or both: {list(formats)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = _dataset(cfg) if set(cfg.outputs) - {SweepOutput.PHASE_DIAGRAM} else None
    tables: Dict[SweepOutput, List[list]] = {out: [] for out in cfg.outputs}
    with _one_blas_thread() if data is not None else contextlib.nullcontext():
        for sb2 in cfg.sigma_b2_grid:
            for sw2 in cfg.sigma_w2_grid:
                for out, rows in _point_rows(cfg, data, sw2, sb2).items():
                    tables[out].extend(rows)
    if SweepOutput.PHASE_DIAGRAM in tables:
        tables[SweepOutput.PHASE_DIAGRAM].extend(_transition_rows(cfg))
    n_errors = sum(row[-1] is not None for rows in tables.values() for row in rows)

    paths = []
    for out, rows in tables.items():
        stem, _, columns = _TABLES[out]
        if "csv" in formats:
            paths.append(out_dir / f"{stem}.csv")
            _write_csv(paths[-1], columns, rows)
        if "json" in formats:
            paths.append(out_dir / f"{stem}.json")
            _write_json(paths[-1], stem, columns, rows)
    return SweepResult(paths=paths, n_point_errors=n_errors)
