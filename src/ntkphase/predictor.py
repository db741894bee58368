"""Kernel regression mean predictor, exact training dynamics and the
ordered-phase infinite-depth predictor.

The mean predictor maps centered train labels to test outputs through
K_test,train @ (K_train,train + ridge)^{-1}; its Frobenius norm along a
depth trajectory is the generalization metric (``predictor_decay`` in
``ntkphase.sweep``), and the gradient-flow dynamics below reproduce it in
the infinite-time limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import IllConditionedError, SingularKernelError
from .phase import Phase, PhaseReport
from .propagation import KernelPair, paper_layer
from .spectra import SpectrumSummary

__all__ = [
    "RegressionTask",
    "DynamicsTrace",
    "center_labels",
    "mean_predict",
    "dynamics",
    "max_learning_rate",
    "ordered_limit_predictor",
]


def center_labels(Y_raw: np.ndarray) -> np.ndarray:
    """Subtract each label column's mean."""
    Y = np.asarray(Y_raw, dtype=float)
    return Y - Y.mean(axis=0, keepdims=True)


@dataclass(frozen=True)
class RegressionTask:
    """Kernel regression data: train-train / test-train kernels and labels."""

    K_dd: np.ndarray
    K_td: np.ndarray
    Y: np.ndarray
    ridge: float = 0.0

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        object.__setattr__(self, "Y", Y)
        if np.max(np.abs(Y.mean(axis=0))) > 1e-12 * max(1.0, float(np.max(np.abs(Y)))):
            raise ValueError("labels must be centered (see center_labels)")
        if self.ridge < 0:
            raise ValueError("ridge strength must be nonnegative")


def _spd_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A via Cholesky.

    Falls back once to a trace-scaled jitter ridge; if that still fails the
    kernel is reported singular together with its smallest eigenvalue.
    """
    try:
        return cho_solve(cho_factor(A, lower=True), B)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(A) / A.shape[0]
        try:
            return cho_solve(cho_factor(A + jitter * np.eye(A.shape[0]), lower=True), B)
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])
            raise SingularKernelError("train-train kernel is not positive definite", min_eig)


def mean_predict(task: RegressionTask) -> np.ndarray:
    """Test-set mean prediction via an SPD solve (never an explicit inverse)."""
    A = task.K_dd + task.ridge * np.eye(task.K_dd.shape[0])
    return task.K_td @ _spd_solve(A, task.Y)


@dataclass(frozen=True)
class DynamicsTrace:
    times: np.ndarray
    mu_train: List[np.ndarray]
    mu_test: List[np.ndarray]
    eta: float


def dynamics(task: RegressionTask, eta: float, times: Sequence[float]) -> DynamicsTrace:
    """Exact gradient-flow mean outputs at the requested times.

    Computed in the eigenbasis of the train-train kernel; the infinite-time
    limit equals mean_predict with zero ridge.  The continuous flow
    converges for any eta > 0; the 2/lambda_max threshold belongs to the
    discretized iteration (see max_learning_rate).
    """
    lam, U = np.linalg.eigh(0.5 * (task.K_dd + task.K_dd.T))
    Yt = U.T @ task.Y
    Kt = task.K_td @ U
    mu_train, mu_test = [], []
    for t in times:
        decay = -np.expm1(-eta * lam * t)  # 1 - exp(-eta lam t), stable for small args
        mu_train.append(U @ (decay[:, None] * Yt))
        # (1 - e^{-eta lam t}) / lam, with the lam -> 0 limit eta * t
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(np.abs(lam) > 1e-300, decay / lam, eta * t)
        mu_test.append(Kt @ (factor[:, None] * Yt))
    return DynamicsTrace(
        times=np.asarray(times, dtype=float), mu_train=mu_train, mu_test=mu_test, eta=eta
    )


def max_learning_rate(spec: SpectrumSummary) -> float:
    """Largest stable step size of discretized gradient descent."""
    if spec.lambda_max <= 0:
        raise ValueError("lambda_max must be positive")
    return 2.0 / spec.lambda_max


def ordered_limit_predictor(
    kp: KernelPair,
    ph: PhaseReport,
    n_train: int,
    *,
    verify_tol: float | None = 1e-6,
) -> np.ndarray:
    """Ordered-phase mean predictor in rank-one-update form.

    Splits the kernel into its constant fixed point plus the scaled
    data-dependent deviation A = (NTK - pstar * ones) / (l * chi1^l) and
    assembles K_td K_dd^{-1} from A's blocks alone, so the expression stays
    finite as the constant part dominates.  The result is checked against
    the direct solve at the same depth before being returned.
    """
    if ph.phase is not Phase.ORDERED or ph.pstar is None:
        raise ValueError("the rank-one predictor form requires the ordered phase")
    ntk = kp.ntk
    m = n_train
    if not 0 < m < ntk.shape[0]:
        raise ValueError("need both train and test rows in the joint kernel")
    l = paper_layer(kp.depth)
    scale = l * ph.chi1**l
    A = (ntk - ph.pstar) / scale
    A_dd, A_td = A[:m, :m], A[m:, :m]
    cond = np.linalg.cond(A_dd)
    if not np.isfinite(cond) or cond > 1e12:
        raise IllConditionedError(f"deviation block condition number {cond:.3e}")
    a = np.linalg.solve(A_dd, np.ones((m, 1)))
    p_hat = float(ph.pstar / (scale + ph.pstar * float(np.sum(a))))
    predictor = (
        np.linalg.solve(A_dd.T, A_td.T).T
        - p_hat * (A_td @ a) @ a.T
        + p_hat * np.ones((ntk.shape[0] - m, 1)) @ a.T
    )
    if verify_tol is not None:
        # At extreme depths the direct solve is itself condition-limited;
        # pass None to skip the cross-check there.
        direct = _spd_solve(ntk[:m, :m], ntk[m:, :m].T).T
        rel = float(np.max(np.abs(predictor - direct))) / max(
            1e-300, float(np.max(np.abs(direct)))
        )
        if rel > verify_tol:
            raise IllConditionedError(
                f"rank-one form deviates {rel:.3e} from the direct solve"
            )
    return predictor
