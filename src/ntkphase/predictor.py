"""Kernel regression mean predictor, exact training dynamics and the
ordered-phase infinite-depth predictor.

The mean predictor maps centered train labels to test outputs through
K_test,train @ (K_train,train + ridge)^{-1}; its Frobenius norm along a
depth trajectory is the generalization metric (``predictor_decay`` in
``ntkphase.sweep``), and the gradient-flow dynamics below reproduce it in
the infinite-time limit.

Every factorization and eigensolve is numpy's (``numpy.linalg``), so a
run loads one LAPACK.  numpy has no triangular solve; ``_cho_solve``
substitutes through the Cholesky factor block by block.  The sweep,
``kappa_trajectory`` and ``predictor_decay`` call these functions at one
BLAS thread, see ``sweep._one_blas_thread``; a direct call runs at the
library's own thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .data import center_labels
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


# numpy's lower Cholesky factor, a module global so that perfbench's layer
# tracer counts one call per factorization attempt
cho_factor = np.linalg.cholesky
_SOLVE_BLOCK = 32  # rows per diagonal block of the substitution in _cho_solve


def _cho_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve L L^T X = B for lower-triangular L, forward then backward.

    numpy has no triangular solve, and an LU solve with all of L would
    factor L again in each direction.  So the substitution runs by blocks
    of ``_SOLVE_BLOCK`` rows: an LU solve with each diagonal block, matrix
    products for the rest.
    """
    X = np.array(B, dtype=float)
    starts = range(0, L.shape[0], _SOLVE_BLOCK)
    for s in starts:  # L W = B
        e = s + _SOLVE_BLOCK
        X[s:e] = np.linalg.solve(L[s:e, s:e], X[s:e] - L[s:e, :s] @ X[:s])
    for s in reversed(starts):  # L^T X = W
        e = s + _SOLVE_BLOCK
        X[s:e] = np.linalg.solve(L[s:e, s:e].T, X[s:e] - L[e:, s:e].T @ X[e:])
    return X


def _spd_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A via Cholesky.

    The factorization is the positive-definiteness test: it falls back once
    to a trace-scaled jitter ridge, and if that still fails the kernel is
    reported singular together with its smallest eigenvalue.  A NaN or inf
    in A or B raises ``ValueError``, since numpy's Cholesky would pass it
    through into the solution.
    """
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("a NaN or inf in the kernel or the right-hand side")
    try:
        L = cho_factor(A)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(A) / A.shape[0]
        try:
            L = cho_factor(A + jitter * np.eye(A.shape[0]))
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])
            raise SingularKernelError("train-train kernel is not positive definite", min_eig)
    return _cho_solve(L, B)


def mean_predict(task: RegressionTask) -> np.ndarray:
    """Test-set mean prediction via an SPD solve (never an explicit inverse)."""
    A = task.K_dd + task.ridge * np.eye(task.K_dd.shape[0])
    return task.K_td @ _spd_solve(A, task.Y)


@dataclass(frozen=True)
class DynamicsTrace:
    times: np.ndarray
    mu_train: List[np.ndarray]
    mu_test: List[np.ndarray]


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
    return DynamicsTrace(times=np.asarray(times, dtype=float), mu_train=mu_train, mu_test=mu_test)


def max_learning_rate(spec: SpectrumSummary) -> float:
    """Largest stable step size of discretized gradient descent."""
    if spec.lambda_max <= 0:
        raise ValueError("lambda_max must be positive")
    return 2.0 / spec.lambda_max


def ordered_limit_predictor(kp: KernelPair, ph: PhaseReport, n_train: int) -> np.ndarray:
    """Ordered-phase mean predictor in rank-one-update form.

    Splits the kernel into its constant fixed point plus the scaled
    data-dependent deviation A = (NTK - pstar * ones) / (l * chi1^l) and
    assembles K_td K_dd^{-1} from A's blocks alone, so the expression stays
    finite as the constant part dominates, where a direct solve loses
    digits.  One eigendecomposition of A_dd gives its condition number and
    its solves; tests check the result against a high-precision solve.
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
    lam, U = np.linalg.eigh(A_dd)
    lo, hi = np.min(np.abs(lam)), np.max(np.abs(lam))
    if not hi <= 1e12 * lo:  # NaN fails too; a zero eigenvalue divides nothing
        with np.errstate(all="ignore"):
            raise IllConditionedError(f"deviation block condition number {hi / lo:.3e}")
    # a = A_dd^{-1} 1 and, A_dd being symmetric, W^T = A_td A_dd^{-1}
    a, W = np.hsplit((U / lam) @ (U.T @ np.hstack([np.ones((m, 1)), A_td.T])), [1])
    p_hat = float(ph.pstar / (scale + ph.pstar * float(np.sum(a))))
    return W.T - p_hat * (A_td @ a) @ a.T + p_hat * np.ones((ntk.shape[0] - m, 1)) @ a.T
