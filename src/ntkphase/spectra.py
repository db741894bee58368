"""Eigenvalue summaries, condition numbers and empirical rate fits.

Depth trajectories of these summaries (``kappa_trajectory``) are built by
the one kernel-trajectory pipeline in ``ntkphase.sweep``.

Eigenvalues come from ``numpy.linalg.eigvalsh`` (LAPACK ``syevd`` on the
lower triangle).  A non-finite kernel gives NaN eigenvalues, or
``LinAlgError`` where LAPACK cannot converge.  The sweep calls it at one
BLAS thread, see ``sweep._one_blas_thread``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import AsymmetryError

__all__ = ["SpectrumSummary", "RateFit", "spectrum", "fit_rate"]


@dataclass(frozen=True)
class SpectrumSummary:
    """Sorted spectrum of one kernel matrix plus its conditioning ratios.

    lambda_bulk is the second-largest eigenvalue: at large depth the
    spectrum splits into one outlier plus an (m-1)-fold bulk, for which the
    second-largest is a deterministic representative.
    """

    eigenvalues: np.ndarray  # descending
    lambda_max: float
    lambda_min: float
    lambda_bulk: float
    kappa: float
    kappa_bulk: float
    depth: int


@dataclass(frozen=True)
class RateFit:
    slope: float
    r2: float
    window: Tuple[float, float]


def spectrum(M: np.ndarray, depth: int = 0) -> SpectrumSummary:
    """Full symmetric eigendecomposition summary."""
    M = np.asarray(M, dtype=float)
    scale = max(1.0, float(np.max(np.abs(M))))
    asym = float(np.max(np.abs(M - M.T)))
    if asym > 1e-10 * scale:
        raise AsymmetryError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))[::-1]
    lam_max, lam_min = float(eigs[0]), float(eigs[-1])
    lam_bulk = float(eigs[1]) if eigs.size > 1 else lam_max
    kappa = lam_max / lam_min if lam_min > 0 else np.inf
    kappa_bulk = lam_max / lam_bulk if lam_bulk > 0 else np.inf
    return SpectrumSummary(
        eigenvalues=eigs,
        lambda_max=lam_max,
        lambda_min=lam_min,
        lambda_bulk=lam_bulk,
        kappa=kappa,
        kappa_bulk=kappa_bulk,
        depth=depth,
    )


def fit_rate(series: Sequence[Tuple[float, float]], model: str = "log_linear") -> RateFit:
    """Least-squares rate of a positive series.

    "log_linear" regresses log(value) on depth (geometric rate per layer);
    "power_law" regresses log(value) on log(depth) (polynomial exponent).
    """
    if len(series) < 4:
        raise ValueError("need at least 4 points for a rate fit")
    depths = np.array([p[0] for p in series], dtype=float)
    values = np.array([p[1] for p in series], dtype=float)
    if np.any(values <= 0.0):
        raise ValueError("rate fits require strictly positive values")
    if model == "log_linear":
        x = depths
    elif model == "power_law":
        if np.any(depths <= 0.0):
            raise ValueError("power-law fits require positive depths")
        x = np.log(depths)
    else:
        raise ValueError(f"unknown fit model {model!r}")
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        slope=float(slope),
        r2=min(max(r2, 0.0), 1.0),
        window=(float(depths.min()), float(depths.max())),
    )
