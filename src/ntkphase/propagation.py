"""Exact depth recursions for NNGP/NTK kernels.

Covers dense matrix propagation over a dataset (fully-connected), the
two-point scalar recursions, 1-D convolutional kernels with circular
padding (block tensors and the diagonal-averaging operator), flatten/pool
readouts, the penultimate-layer dropout correction, and the continuum
residual-network flows.

Depth bookkeeping: the starting pair sets the NTK equal to the input NNGP,
so a state at ``depth`` steps corresponds to layer index ``depth + 1`` of
the closed-form depth laws (whose recursion starts from zero); see
``paper_layer``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .activations import ActivationKernel
from .errors import DiagonalDriftError, StepSizeError, WindowError, ZeroRowError
from .phase import Hyperparams

__all__ = [
    "KernelPair",
    "ScalarKernelState",
    "CnnKernel",
    "OdeKernelState",
    "ResidualVariant",
    "ReadoutMode",
    "paper_layer",
    "normalize_inputs",
    "init_kernels",
    "step_fcn",
    "propagate_fcn",
    "step_scalar",
    "propagate_scalar",
    "apply_A",
    "fourier_eigs",
    "normalize_inputs_cnn",
    "init_cnn_kernels",
    "step_cnn",
    "propagate_cnn",
    "readout",
    "dropout_kappa_limit",
    "apply_dropout",
    "integrate_residual",
]

_DIAG_DRIFT_TOL = 1e-8


def paper_layer(depth: int) -> int:
    """Layer index at which closed-form depth laws apply to a depth-d state."""
    return depth + 1


@dataclass(frozen=True)
class KernelPair:
    """Dense NNGP/NTK matrices over a dataset after ``depth`` steps."""

    nngp: np.ndarray
    ntk: np.ndarray
    depth: int


@dataclass(frozen=True)
class ScalarKernelState:
    """Two-point reduction: diagonal and off-diagonal entries only."""

    q_diag: float
    q_ab: float
    p_diag: float
    p_ab: float
    depth: int


class ReadoutMode(str, enum.Enum):
    FLATTEN = "flatten"
    POOL = "pool"


class ResidualVariant(str, enum.Enum):
    RESIDUAL_RELU = "residual_relu"
    RESIDUAL_RELU_LAYERNORM = "residual_relu_layernorm"


@dataclass(frozen=True)
class CnnKernel:
    """Pixel-pixel kernel blocks for a 1-D convolutional network.

    Only the upper triangle of sample pairs is stored: ``nngp[pair_index(i, j)]``
    is the d x d block of covariances between pixels of sample i and sample j;
    the (j, i) block is its transpose.
    """

    nngp: np.ndarray  # (n_pairs, d, d)
    ntk: np.ndarray
    m: int
    spatial_size: int
    filter_halfwidth: int
    depth: int

    def pair_index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * self.m - (i * (i - 1)) // 2 + (j - i)

    def block(self, i: int, j: int, kind: str = "nngp") -> np.ndarray:
        arr = self.nngp if kind == "nngp" else self.ntk
        b = arr[self.pair_index(i, j)]
        return b if i <= j else b.T


@dataclass(frozen=True)
class OdeKernelState:
    """Scalar state of a continuum residual flow at depth-time t."""

    t: float
    q_diag: float
    q_ab: float
    p_diag: float
    p_ab: float
    variant: ResidualVariant


# ---------------------------------------------------------------------------
# fully-connected path


def normalize_inputs(X: np.ndarray, qstar: float) -> np.ndarray:
    """Scale each row to mean-square ``qstar``."""
    X = np.asarray(X, dtype=float)
    ms = np.mean(X * X, axis=1)
    if np.any(ms <= 0.0):
        raise ZeroRowError("cannot normalize a zero input row")
    return X * np.sqrt(qstar / ms)[:, None]


def init_kernels(X: np.ndarray) -> KernelPair:
    """Input-layer kernels: NNGP is the feature second moment, NTK starts equal."""
    X = np.asarray(X, dtype=float)
    nngp = X @ X.T / X.shape[1]
    nngp = 0.5 * (nngp + nngp.T)
    return KernelPair(nngp=nngp, ntk=nngp.copy(), depth=0)


def _pin_diagonal(mat: np.ndarray, qstar: float, what: str) -> None:
    drift = np.max(np.abs(np.diagonal(mat) - qstar))
    if drift > _DIAG_DRIFT_TOL:
        raise DiagonalDriftError(
            f"{what} diagonal drifted {drift:.3e} from qstar={qstar:.6g}"
        )
    np.fill_diagonal(mat, qstar)


def step_fcn(kp: KernelPair, h: Hyperparams, k: ActivationKernel) -> KernelPair:
    """One fully-connected layer of the joint NNGP/NTK recursion."""
    nngp = h.sigma_w2 * k.t_map(kp.nngp) + h.sigma_b2
    _pin_diagonal(nngp, k.qstar, "NNGP")
    ntk = nngp + h.sigma_w2 * k.t_dot(kp.nngp) * kp.ntk
    return KernelPair(nngp=nngp, ntk=ntk, depth=kp.depth + 1)


def _walk(state, step, h: Hyperparams, k: ActivationKernel, depths: Sequence[int]) -> list:
    """Apply ``step`` repeatedly, collecting the state at each requested depth."""
    want = sorted(set(depths))
    if want and want[0] < state.depth:
        raise ValueError("requested depth precedes the current state")
    out = []
    for target in want:
        while state.depth < target:
            state = step(state, h, k)
        out.append(state)
    return out


def propagate_fcn(
    kp: KernelPair, h: Hyperparams, k: ActivationKernel, depths: Sequence[int]
) -> List[KernelPair]:
    """Propagate and collect the states at the requested (ascending) depths."""
    return _walk(kp, step_fcn, h, k, depths)


def step_scalar(s: ScalarKernelState, h: Hyperparams, k: ActivationKernel) -> ScalarKernelState:
    """One layer of the two-point reduction (diagonal pinned at qstar)."""
    q_ab = h.sigma_w2 * k.t_map(s.q_ab) + h.sigma_b2
    p_ab = q_ab + h.sigma_w2 * k.t_dot(s.q_ab) * s.p_ab
    chi1 = h.sigma_w2 * k.t_dot(k.qstar)
    return ScalarKernelState(
        q_diag=k.qstar,
        q_ab=q_ab,
        p_diag=k.qstar + chi1 * s.p_diag,
        p_ab=p_ab,
        depth=s.depth + 1,
    )


def propagate_scalar(
    s: ScalarKernelState, h: Hyperparams, k: ActivationKernel, depths: Sequence[int]
) -> List[ScalarKernelState]:
    return _walk(s, step_scalar, h, k, depths)


# ---------------------------------------------------------------------------
# convolutional path


def apply_A(block: np.ndarray, halfwidth: int) -> np.ndarray:
    """Average the 2k+1 circular diagonal shifts of a pixel-pixel block."""
    block = np.asarray(block, dtype=float)
    d = block.shape[-1]
    if 2 * halfwidth + 1 > d:
        raise WindowError(f"window {2 * halfwidth + 1} exceeds spatial size {d}")
    if halfwidth == 0:
        return block.copy()
    acc = block.copy()
    for beta in range(1, halfwidth + 1):
        acc += np.roll(block, (-beta, -beta), axis=(-2, -1))
        acc += np.roll(block, (beta, beta), axis=(-2, -1))
    return acc / (2 * halfwidth + 1)


def fourier_eigs(d: int, halfwidth: int) -> np.ndarray:
    """Eigenvalues of the diagonal-averaging operator, one per spatial mode."""
    if 2 * halfwidth + 1 > d:
        raise WindowError(f"window {2 * halfwidth + 1} exceeds spatial size {d}")
    q = np.arange(d)
    beta = np.arange(-halfwidth, halfwidth + 1)
    return np.cos(2.0 * math.pi * np.outer(q, beta) / d).sum(axis=1) / (2 * halfwidth + 1)


def normalize_inputs_cnn(X: np.ndarray, qstar: float) -> np.ndarray:
    """Scale each pixel's channel vector to mean-square ``qstar``.

    ``X`` has shape (samples, channels, pixels).
    """
    X = np.asarray(X, dtype=float)
    ms = np.mean(X * X, axis=1)  # (m, d)
    if np.any(ms <= 0.0):
        raise ZeroRowError("cannot normalize a zero pixel column")
    return X * np.sqrt(qstar / ms)[:, None, :]


def init_cnn_kernels(X: np.ndarray, halfwidth: int) -> CnnKernel:
    """Input-layer pixel-pixel blocks from channel second moments."""
    X = np.asarray(X, dtype=float)
    m, n_ch, d = X.shape
    if 2 * halfwidth + 1 > d:
        raise WindowError(f"window {2 * halfwidth + 1} exceeds spatial size {d}")
    i, j = np.triu_indices(m)  # pair_index order
    nngp = np.matmul(X[i].transpose(0, 2, 1), X[j]) / n_ch
    return CnnKernel(
        nngp=nngp,
        ntk=nngp.copy(),
        m=m,
        spatial_size=d,
        filter_halfwidth=halfwidth,
        depth=0,
    )


def _diag_pair_indices(ck: CnnKernel) -> np.ndarray:
    i = np.arange(ck.m)
    return i * ck.m - i * (i - 1) // 2  # pair_index(i, i)


def step_cnn(ck: CnnKernel, h: Hyperparams, k: ActivationKernel) -> CnnKernel:
    """One convolutional layer: pointwise maps, then diagonal averaging."""
    t = k.t_map(ck.nngp)
    td = k.t_dot(ck.nngp)
    nngp = h.sigma_w2 * apply_A(t, ck.filter_halfwidth) + h.sigma_b2
    ar = np.arange(ck.spatial_size)
    pixel_diag = (_diag_pair_indices(ck)[:, None], ar, ar)  # (sample, pixel) self-covariances
    drift = np.max(np.abs(nngp[pixel_diag] - k.qstar))
    if drift > _DIAG_DRIFT_TOL:
        raise DiagonalDriftError(
            f"pixel diagonal drifted {drift:.3e} from qstar={k.qstar:.6g}"
        )
    nngp[pixel_diag] = k.qstar
    ntk = nngp + apply_A(h.sigma_w2 * td * ck.ntk, ck.filter_halfwidth)
    return CnnKernel(
        nngp=nngp,
        ntk=ntk,
        m=ck.m,
        spatial_size=ck.spatial_size,
        filter_halfwidth=ck.filter_halfwidth,
        depth=ck.depth + 1,
    )


def propagate_cnn(
    ck: CnnKernel, h: Hyperparams, k: ActivationKernel, depths: Sequence[int]
) -> List[CnnKernel]:
    return _walk(ck, step_cnn, h, k, depths)


def readout(ck: CnnKernel, mode: ReadoutMode) -> KernelPair:
    """Collapse spatial indices: flatten averages the block trace, pooling
    averages the whole block."""
    mode = ReadoutMode(mode)
    d = ck.spatial_size
    if mode is ReadoutMode.FLATTEN:
        reduce = lambda blocks: np.trace(blocks, axis1=-2, axis2=-1) / d
    else:
        reduce = lambda blocks: blocks.mean(axis=(-2, -1))
    i, j = np.triu_indices(ck.m)  # pair_index order

    def square(blocks):
        out = np.empty((ck.m, ck.m))
        out[i, j] = out[j, i] = reduce(blocks)
        return out

    return KernelPair(nngp=square(ck.nngp), ntk=square(ck.ntk), depth=ck.depth)


# ---------------------------------------------------------------------------
# dropout readout layer


def dropout_kappa_limit(m: int, pstar: float, sigma_b2: float, rho: float) -> float:
    """Infinite-depth NTK condition number with a penultimate dropout layer.

    In the ordered phase the dropout diagonal boost turns the exploding
    condition number into the finite limit m*pstar / ((1/rho - 1)(pstar -
    sigma_b2)) + 1.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("the finite limit needs a keep-rate strictly inside (0, 1)")
    return m * pstar / ((1.0 / rho - 1.0) * (pstar - sigma_b2)) + 1.0


def apply_dropout(kp: KernelPair, h: Hyperparams, k: ActivationKernel) -> KernelPair:
    """One plain readout layer on top of ``kp`` with dropout keep-rate rho.

    Dropout rescales only the diagonal: the off-diagonal entries coincide
    bit-for-bit with the plain step, and rho = 1 returns the plain step
    unchanged.  The result is a terminal kernel (its diagonal is no longer
    the recursion fixed point), not meant for further propagation.
    """
    rho = h.dropout_keep
    if not 0.0 < rho <= 1.0:
        raise ValueError("dropout keep-rate must lie in (0, 1]")
    stepped = step_fcn(kp, h, k)
    if rho == 1.0:
        return stepped
    nngp = stepped.nngp.copy()
    ntk = stepped.ntk.copy()
    inv = 1.0 / rho
    np.fill_diagonal(nngp, inv * (np.diagonal(stepped.nngp) - h.sigma_b2) + h.sigma_b2)
    np.fill_diagonal(ntk, inv * np.diagonal(stepped.ntk) + (1.0 - inv) * h.sigma_b2)
    return KernelPair(nngp=nngp, ntk=ntk, depth=stepped.depth)


# ---------------------------------------------------------------------------
# continuum residual flows (critical ReLU, sigma_w2 = 2, sigma_b2 = 0)


def _relu_pair(q_ab: float, q: float):
    """(2*T, 2*T_dot) at off-diagonal q_ab when both diagonals equal q."""
    c = min(max(q_ab / q, -1.0), 1.0)
    theta = 2.0 * math.asin(math.sqrt(0.5 * (1.0 - c)))
    two_t = (q / math.pi) * (math.sin(theta) + (math.pi - theta) * math.cos(theta))
    two_td = (math.pi - theta) / math.pi
    return two_t, two_td


def _residual_rhs(state, variant: ResidualVariant):
    q, qab, p, pab = state
    two_t_diag = q  # 2*T at coincident arguments is the identity for ReLU
    two_t_ab, two_td_ab = _relu_pair(qab, q)
    if variant is ResidualVariant.RESIDUAL_RELU:
        return (
            two_t_diag,
            two_t_ab,
            two_t_diag + p,
            two_t_ab + two_td_ab * pab,
        )
    # layer norm adds a -state decay that keeps the diagonal variance fixed;
    # on the diagonal 2*T_dot = 1, so the NTK diagonal just integrates q
    return (
        -q + two_t_diag,
        -qab + two_t_ab,
        q,
        -pab + qab + two_td_ab * pab,
    )


def integrate_residual(
    s0: OdeKernelState, t_end: float, dt: float = 1e-3, sample_every: int = 0
) -> List[OdeKernelState]:
    """Classical RK4 on the scalar residual-flow system.

    Returns sampled states (every ``sample_every`` steps plus the final one;
    0 keeps only initial and final).  The layer-norm variant must hold its
    unit diagonal; a violation beyond 1e-6 signals too large a step.
    """
    variant = ResidualVariant(s0.variant)
    y = np.array([s0.q_diag, s0.q_ab, s0.p_diag, s0.p_ab], dtype=float)
    t = s0.t
    n_steps = int(round((t_end - t) / dt))
    states = [s0]

    def rhs(state):
        return np.array(_residual_rhs(state, variant))

    for i in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = s0.t + i * dt
        if variant is ResidualVariant.RESIDUAL_RELU_LAYERNORM and abs(y[0] - 1.0) > 1e-6:
            raise StepSizeError(f"unit-diagonal invariant violated at t={t:.4g}")
        if (sample_every and i % sample_every == 0) or i == n_steps:
            states.append(
                OdeKernelState(
                    t=t, q_diag=y[0], q_ab=y[1], p_diag=y[2], p_ab=y[3], variant=variant
                )
            )
    return states
