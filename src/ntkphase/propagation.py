"""Exact depth recursions for NNGP/NTK kernels.

Covers dense matrix propagation over a dataset (fully-connected), 1-D
convolutional kernels with circular padding (pixel-offset storage and the
diagonal-averaging operator), flatten/pool readouts, the penultimate-layer
dropout correction, and the continuum residual-network flows.

``step_cnn`` is the one layer recursion.  A fully-connected layer is the
convolutional layer at one pixel and window one (spatial size 1, filter
halfwidth 0): a dense ``KernelPair`` is stored by its upper triangle of
sample pairs as such a ``CnnKernel``, stepped, and read back by the flatten
readout.  The two-point recursion of one input pair is the dense recursion
at m = 2: a 2 x 2 ``KernelPair`` with NNGP [[q*, q_ab], [q_ab, q*]] and
NTK [[p, p_ab], [p_ab, p]] run through ``step_fcn``.

Convolutional kernels are stored by pixel offset, not as d x d blocks:
entry ``[o, a]`` of a pair is the covariance of pixel a of the first sample
with pixel (a + o) mod d of the second.  The diagonal-averaging operator
shifts both pixel indices together and the Gaussian maps act entry by
entry, so every offset evolves on its own; a flatten readout reads only
offset 0, and a kernel may carry offset 0 alone.  Pooling and
``CnnKernel.block`` need every offset.

The state is C-contiguous, so ``apply_A`` adds each shifted neighbour as
one contiguous add over the flat buffer and then redoes only the columns
that wrap around a row.  ``step_cnn`` maps the state tile by tile through
the kernel's own ``t_map`` and ``t_dot``, which check each tile's covariance
domain (one min/max pass for an in-domain tile) and clip a tile's overshoot
entry by entry, as one check of the whole state would; only when a tile
fails does the step check the whole state, so the error quotes its global
maximum.  Each tile is a run of whole sample pairs of about
``_TILE_ENTRIES`` entries, so every pass stays in cache; the tiles, like the
readouts' pair indices, are cached, so a small state pays for its entries.
Each entry sees the same operations in the same order as in one pass over
the whole state, and every Gaussian map acts entry by entry, so the result
does not depend on the tile size.

``step_cnn`` is a pure function of its state, written into new arrays or
into the ones it is given.  The depth walk behind ``propagate_fcn`` and
``propagate_cnn`` steps each state into the arrays of the state two steps
back, unless the caller gave or the walk yielded that state, so it
allocates at most twice plus once per state it yields.  The NNGP update
reads only the NNGP, so once a step returns the NNGP bit for bit, every
later step returns it again, the domain and drift checks see the same
input, and T_dot at it is already known.  From there the walk computes
``sigma_w2 * T_dot`` once and steps the NTK alone, ``nngp + A(sigma_w2 *
T_dot * ntk)``, over the same tiles and in the same order as the full
step: every state it yields holds the full steps' bits.

Depth bookkeeping: the starting pair sets the NTK equal to the input NNGP,
so a state at ``depth`` steps corresponds to layer index ``depth + 1`` of
the closed-form depth laws (whose recursion starts from zero); see
``paper_layer``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Sequence

import numpy as np

from .activations import ActivationKernel, _relu_t, _relu_tdot
from .errors import (CovarianceDomainError, DiagonalDriftError, NonConvergenceError,
                     WindowError, ZeroRowError)
from .phase import Hyperparams

__all__ = [
    "KernelPair",
    "CnnKernel",
    "OdeKernelState",
    "ResidualVariant",
    "ReadoutMode",
    "paper_layer",
    "normalize_inputs",
    "init_kernels",
    "step_fcn",
    "propagate_fcn",
    "apply_A",
    "blocks_to_offsets",
    "offsets_to_blocks",
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
_FLOW_BOUND = 1e300  # plain-flow diagonal cap: the solver's sums need headroom below 1.8e308
_TILE_ENTRIES = 2**16  # kernel entries per step_cnn tile: a few passes fit in L2


def paper_layer(depth: int) -> int:
    """Layer index at which closed-form depth laws apply to a depth-d state."""
    return depth + 1


@dataclass(frozen=True)
class KernelPair:
    """Dense NNGP/NTK matrices over a dataset after ``depth`` steps."""

    nngp: np.ndarray
    ntk: np.ndarray
    depth: int


class ReadoutMode(str, enum.Enum):
    FLATTEN = "flatten"
    POOL = "pool"


class ResidualVariant(str, enum.Enum):
    RESIDUAL_RELU = "residual_relu"
    RESIDUAL_RELU_LAYERNORM = "residual_relu_layernorm"


@dataclass(frozen=True)
class CnnKernel:
    """Pixel-pixel kernels of a 1-D convolutional network, stored by offset.

    Only the upper triangle of sample pairs is stored (or a prefix of it in
    pair order), and each pair by pixel offset: ``nngp[pair_index(i, j), o,
    a]`` is the covariance between pixel a of sample i and pixel (a + o) mod
    d of sample j.  The offset axis holds all d offsets, or offset 0 alone,
    which is all a flatten readout reads; ``block`` and pooling need every
    offset.
    """

    nngp: np.ndarray  # (n_pairs, n_offsets, d)
    ntk: np.ndarray
    m: int
    filter_halfwidth: int
    depth: int

    def pair_index(self, i: int, j: int) -> int:
        i, j = min(i, j), max(i, j)
        row = i * self.m - (i * (i - 1)) // 2 + (j - i)
        if i < 0 or j >= self.m or row >= len(self.nngp):
            raise IndexError(f"pair ({i}, {j}) is not stored")
        return row

    def block(self, i: int, j: int, kind: str = "nngp") -> np.ndarray:
        """The d x d block of covariances between pixels of sample i and j."""
        if kind not in ("nngp", "ntk"):
            raise ValueError("kind must be 'ntk' or 'nngp'")
        arr = self.nngp if kind == "nngp" else self.ntk
        b = offsets_to_blocks(arr[self.pair_index(i, j)])
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
    """Scale each input vector along axis 1 to mean-square ``qstar``.

    One rule for both layouts: FCN rows ``(samples, features)`` and CNN
    pixel columns ``(samples, channels, pixels)``, each pixel's channel
    vector scaled on its own.
    """
    if not 0.0 < qstar < math.inf:  # also rejects NaN
        raise ValueError(f"qstar must be positive and finite, not {qstar!r}")
    X = np.asarray(X, dtype=float)
    ms = np.mean(X * X, axis=1, keepdims=True)
    if not np.all((0.0 < ms) & (ms < np.inf)):  # also rejects NaN
        raise ZeroRowError("cannot normalize an input vector of zero or non-finite mean square")
    return X * np.sqrt(qstar / ms)


normalize_inputs_cnn = normalize_inputs


def init_kernels(X: np.ndarray) -> KernelPair:
    """Input-layer kernels: NNGP is the feature second moment, NTK starts equal."""
    X = np.asarray(X, dtype=float)
    nngp = X @ X.T / X.shape[1]
    nngp = 0.5 * (nngp + nngp.T)
    return KernelPair(nngp=nngp, ntk=nngp.copy(), depth=0)


@lru_cache(maxsize=8)
def _upper(m: int) -> np.ndarray:
    """Read-only mask of an m x m upper triangle; in C order its entries are the pair order."""
    mask = np.triu(np.ones((m, m), dtype=bool))
    mask.flags.writeable = False
    return mask


def _as_pairs(kp: KernelPair) -> CnnKernel:
    """A dense pair as the one-pixel, window-one convolutional kernel: its upper triangle."""
    m = kp.nngp.shape[0]
    nngp, ntk = (K[_upper(m)].reshape(-1, 1, 1) for K in (kp.nngp, kp.ntk))
    return CnnKernel(nngp, ntk, m, filter_halfwidth=0, depth=kp.depth)


def step_fcn(kp: KernelPair, h: Hyperparams, k: ActivationKernel) -> KernelPair:
    """One fully-connected layer: ``step_cnn`` at one pixel and window one."""
    return readout(step_cnn(_as_pairs(kp), h, k), ReadoutMode.FLATTEN)


def _check_depths(depths: Sequence[int], start: int) -> None:
    """Raise unless ``start <= depths[0] < depths[1] < ...``."""
    if any(d2 <= d1 for d1, d2 in zip([start - 1, *depths], depths)):
        raise ValueError(f"depths must be at least {start} and strictly increasing: {list(depths)}")


def _walk(ck: CnnKernel, h: Hyperparams, k: ActivationKernel, depths: Sequence[int]) -> Iterator:
    """Step ``ck`` repeatedly, yielding the state at each requested depth.

    Once a full ``step_cnn`` returns the NNGP bit for bit (``_nngp_fixed``),
    every later step would too, so the walk caches ``sigma_w2 * T_dot`` at
    it and advances the NTK alone (``_frozen_step``); every state it yields
    holds the bits of the full steps.
    """
    wtd = None  # sigma_w2 * T_dot at the fixed NNGP, once it is reached
    spare = None  # the arrays of the state before ck, if neither the caller's nor yielded
    own = False  # whether ck's arrays may become spare
    for target in depths:
        while ck.depth < target:
            if wtd is None:
                new = step_cnn(ck, h, k, out=spare)
                if _nngp_fixed(ck, new):
                    wtd = k.t_dot(new.nngp)
                    wtd *= h.sigma_w2  # step_cnn's multiply order: (sigma_w2 * T_dot) * ntk
            else:
                new = _frozen_step(ck, wtd, out=spare and spare[1])  # the NNGP is shared
            spare = (ck.nngp, ck.ntk) if own else None
            ck, own = new, new.depth < target
        yield ck


def propagate_fcn(
    kp: KernelPair, h: Hyperparams, k: ActivationKernel, depths: Sequence[int]
) -> List[KernelPair]:
    """Propagate and collect the states at the requested (strictly increasing) depths."""
    states = propagate_cnn(_as_pairs(kp), h, k, depths)
    return [readout(ck, ReadoutMode.FLATTEN) for ck in states]  # one pair state held at a time


# ---------------------------------------------------------------------------
# convolutional path


def _check_window(d: int, halfwidth: int) -> None:
    """Raise ``WindowError`` unless the 2k + 1 filter window fits in ``d`` pixels."""
    if halfwidth < 0:
        raise WindowError(f"filter halfwidth {halfwidth} is negative")
    if 2 * halfwidth + 1 > d:
        raise WindowError(f"window {2 * halfwidth + 1} exceeds spatial size {d}")


def apply_A(K: np.ndarray, halfwidth: int, out: np.ndarray | None = None) -> np.ndarray:
    """Average the 2k+1 circular diagonal shifts of offset-stored kernels.

    A diagonal shift of a block moves both pixel indices together, so on
    the offset layout it is a circular shift along the position (last)
    axis; each offset is averaged on its own.  The result goes to ``out``
    (C-contiguous, the shape of ``K``, not overlapping it) when given.

    Each shift is one add over the flat C-ordered buffer, which is right
    except in the ``beta`` columns of each row that wrap around: those are
    summed from the row's other end before the add and written back after
    it.  The first shift writes ``K[a] + K[a+1]`` straight into the result,
    which at halfwidth 0 is a copy of ``K``.  Entry a gets ``((K[a] +
    K[a+1]) + K[a-1]) + K[a+2] ...`` (mod d).
    """
    K = np.ascontiguousarray(K, dtype=float)
    _check_window(K.shape[-1], halfwidth)
    if out is None:
        out = np.empty_like(K)
    elif out.shape != K.shape or not out.flags.c_contiguous or np.may_share_memory(out, K):
        raise ValueError(f"out must be a C-contiguous array of shape {K.shape} not overlapping K")
    if halfwidth == 0:
        np.copyto(out, K)
        return out
    flat, out_flat = K.reshape(-1), out.reshape(-1)
    np.add(flat[:-1], flat[1:], out=out_flat[:-1])  # out[a] = K[a] + K[a + 1]
    np.add(K[..., -1:], K[..., :1], out=out[..., -1:])  # out[a] = K[a] + K[a + 1 - d]
    for beta in range(1, halfwidth + 1):
        if beta > 1:
            wrap = out[..., -beta:] + K[..., :beta]  # out[a] += K[a + beta - d]
            out_flat[:-beta] += flat[beta:]  # out[a] += K[a + beta]
            out[..., -beta:] = wrap
        wrap = out[..., :beta] + K[..., -beta:]  # out[a] += K[a - beta + d]
        out_flat[beta:] += flat[:-beta]  # out[a] += K[a - beta]
        out[..., :beta] = wrap
    out /= 2 * halfwidth + 1
    return out


def _gather_square(X: np.ndarray, flat_index: np.ndarray) -> np.ndarray:
    """Copy of X whose trailing d x d entry [r, c] is the flat entry ``flat_index[r, c]``."""
    flat = X.reshape(*X.shape[:-2], -1)
    return np.take(flat, flat_index.ravel(), axis=-1).reshape(X.shape)


def blocks_to_offsets(blocks: np.ndarray) -> np.ndarray:
    """(..., d, d) blocks to the offset layout: ``[..., o, a] = B[..., a, (a + o) mod d]``."""
    blocks = np.asarray(blocks, dtype=float)
    d = blocks.shape[-1]
    o, a = np.indices((d, d))
    return _gather_square(blocks, a * d + (a + o) % d)


def offsets_to_blocks(K: np.ndarray) -> np.ndarray:
    """C-contiguous (..., d, d) blocks, ``B[a, b] = K[(b - a) mod d, a]``, from every offset."""
    K = np.asarray(K, dtype=float)
    n_offsets, d = K.shape[-2:]
    if n_offsets != d:
        raise ValueError(
            f"pooling and d x d blocks need every pixel offset; this kernel stores {n_offsets} of {d}"
        )
    a, b = np.indices((d, d))
    return _gather_square(K, (b - a) % d * d + a)


def fourier_eigs(d: int, halfwidth: int) -> np.ndarray:
    """Eigenvalues of the diagonal-averaging operator, one per spatial mode."""
    _check_window(d, halfwidth)
    q = np.arange(d)
    beta = np.arange(-halfwidth, halfwidth + 1)
    return np.cos(2.0 * math.pi * np.outer(q, beta) / d).sum(axis=1) / (2 * halfwidth + 1)


def init_cnn_kernels(X: np.ndarray, halfwidth: int) -> CnnKernel:
    """Input-layer pixel-pixel kernels (every offset) from channel second moments."""
    X = np.asarray(X, dtype=float)
    m, n_ch, d = X.shape
    _check_window(d, halfwidth)
    i, j = np.triu_indices(m)  # pair_index order
    nngp = blocks_to_offsets(np.matmul(X[i].transpose(0, 2, 1), X[j]) / n_ch)
    return CnnKernel(nngp=nngp, ntk=nngp.copy(), m=m, filter_halfwidth=halfwidth, depth=0)


@lru_cache(maxsize=16)
def _tile_plan(m: int, n_pairs: int, pair_size: int, tile_entries: int) -> tuple:
    """Runs of whole sample pairs of about ``tile_entries`` entries, each with its (i, i) rows."""
    per_tile = max(1, tile_entries // pair_size)
    diag = np.array([i * m - i * (i - 1) // 2 for i in range(m)])  # pair_index(i, i)
    tiles = [slice(s, min(s + per_tile, n_pairs)) for s in range(0, n_pairs, per_tile)]
    return tuple((t, diag[(t.start <= diag) & (diag < t.stop)] - t.start) for t in tiles)


def _pair_tiles(ck: CnnKernel) -> tuple:
    """The ``_tile_plan`` of ``ck``'s state at the current ``_TILE_ENTRIES``."""
    return _tile_plan(ck.m, ck.nngp.shape[0], ck.nngp[0].size, _TILE_ENTRIES)


def step_cnn(
    ck: CnnKernel, h: Hyperparams, k: ActivationKernel, out: tuple | None = None
) -> CnnKernel:
    """One convolutional layer (at one pixel and window one, the FCN layer): maps, then averaging.

    Runs tile by tile over whole sample pairs, planned once per shape, so
    each pass stays in cache; every entry sees the operations, in order, of
    the untiled ``sigma_w2 * A(T(K)) + sigma_b2`` and ``nngp + A(sigma_w2 *
    T_dot(K) * ntk)``, so the result does not depend on the tile size.
    The new state holds new arrays, or the given ``out = (nngp, ntk)``:
    C-contiguous floats of its shape that share no memory with ``ck``.
    """
    if h.activation is not k.activation:
        raise ValueError(f"h steps {h.activation.value} layers but k maps {k.activation.value}")
    hw = ck.filter_halfwidth
    if out and (np.may_share_memory(*out) or any(
            a.shape != ck.nngp.shape or a.dtype != float or not a.flags.c_contiguous
            or np.may_share_memory(a, ck.nngp) or np.may_share_memory(a, ck.ntk) for a in out)):
        raise ValueError(f"out must be two C-contiguous float arrays of shape {ck.nngp.shape} "
                         "that share no memory with each other or with the state")
    nngp, ntk = out or (np.empty_like(ck.nngp), np.empty_like(ck.nngp))
    drift = 0.0  # the largest so far; a NaN stays
    try:
        for s, rows in _pair_tiles(ck):
            q, tile_nngp, tile_ntk = ck.nngp[s], nngp[s], ntk[s]
            apply_A(k.t_map(q), hw, out=tile_nngp)
            tile_nngp *= h.sigma_w2
            tile_nngp += h.sigma_b2
            if rows.size:  # offset 0 of (i, i): the pixel variances
                drift = np.abs(tile_nngp[rows, 0] - k.qstar).max(initial=drift)
                tile_nngp[rows, 0] = k.qstar
            td = k.t_dot(q)
            td *= h.sigma_w2
            td *= ck.ntk[s]
            apply_A(td, hw, out=tile_ntk)
            tile_ntk += tile_nngp
    except CovarianceDomainError:  # a tile reaches past the domain, so the whole state does
        k._check_domain(ck.nngp)  # and raises again, quoting its global maximum
    if not drift <= _DIAG_DRIFT_TOL:  # a NaN drift fails too
        raise DiagonalDriftError(
            f"NNGP diagonal drifted {drift:.3e} from qstar={k.qstar:.6g}"
        )
    return CnnKernel(nngp, ntk, ck.m, hw, ck.depth + 1)


def _nngp_fixed(old: CnnKernel, new: CnnKernel) -> bool:
    """Whether a step returned the NNGP bit for bit, so every later step returns it too.

    ``np.array_equal`` of the two NNGPs, taken tile by tile over
    ``_pair_tiles`` and stopping at the first unequal tile, so it builds no
    temporary the size of the state.
    """
    return all(np.array_equal(old.nngp[s], new.nngp[s]) for s, _ in _pair_tiles(old))


def _frozen_step(ck: CnnKernel, wtd: np.ndarray, out: np.ndarray | None = None) -> CnnKernel:
    """``step_cnn`` on a state whose NNGP is its own image, with ``wtd = sigma_w2 * T_dot(nngp)``.

    The NNGP carries over; the NTK gets ``nngp + A(wtd * ntk)`` tile by tile
    over the same tiles, so every entry sees the operations of the full step.
    It goes to new arrays, or to ``out``, which must not overlap ``ck``.
    """
    nngp = ck.nngp
    ntk = np.empty_like(nngp) if out is None else out
    for s, _ in _pair_tiles(ck):
        tile_ntk = ntk[s]
        apply_A(wtd[s] * ck.ntk[s], ck.filter_halfwidth, out=tile_ntk)
        tile_ntk += nngp[s]
    return CnnKernel(nngp, ntk, ck.m, ck.filter_halfwidth, ck.depth + 1)


def propagate_cnn(
    ck: CnnKernel, h: Hyperparams, k: ActivationKernel, depths: Sequence[int]
) -> Iterator[CnnKernel]:
    """Yield the state at each requested depth as it is reached; depths are checked at the call.

    The walk never writes to ``ck`` or to a state it has yielded."""
    _check_depths(depths, ck.depth)
    return _walk(ck, h, k, depths)


def readout(ck: CnnKernel, mode: ReadoutMode) -> KernelPair:
    """Collapse spatial indices: flatten averages the block trace (offset 0
    over positions), pooling averages the whole block (every offset).  The
    pairs past a state's stored prefix read NaN."""
    mode = ReadoutMode(mode)
    if mode is ReadoutMode.FLATTEN:
        reduce = lambda K: K[:, 0].mean(axis=-1)
    else:
        reduce = lambda K: offsets_to_blocks(K).mean(axis=(-2, -1))
    upper = _upper(ck.m)
    missing = [np.nan] * (ck.m * (ck.m + 1) // 2 - ck.nngp.shape[0])

    def square(K):
        out = np.empty((ck.m, ck.m))
        out[upper] = out.T[upper] = np.append(reduce(K), missing) if missing else reduce(K)
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


def apply_dropout(kp: KernelPair, h: Hyperparams, k: ActivationKernel, rho: float) -> KernelPair:
    """One plain readout layer on top of ``kp`` with dropout keep-rate ``rho`` in (0, 1].

    Dropout rescales, in place, only the diagonals of the new pair that
    ``step_fcn`` returns: the off-diagonals keep the plain step's bits, and
    rho = 1 returns the plain step.  The result is a terminal kernel (its
    diagonal is no longer the recursion fixed point), not for propagation.
    """
    if not 0.0 < rho <= 1.0:  # also rejects NaN
        raise ValueError(f"the keep-rate rho must lie in (0, 1], not {rho!r}")
    stepped = step_fcn(kp, h, k)
    if rho < 1.0:
        inv = 1.0 / rho
        np.fill_diagonal(stepped.nngp, inv * (np.diagonal(stepped.nngp) - h.sigma_b2) + h.sigma_b2)
        np.fill_diagonal(stepped.ntk, inv * np.diagonal(stepped.ntk) + (1.0 - inv) * h.sigma_b2)
    return stepped


# ---------------------------------------------------------------------------
# continuum residual flows (critical ReLU, sigma_w2 = 2, sigma_b2 = 0)


def _residual_rhs(state, variant: ResidualVariant):
    q, qab, p, pab = state
    two_t_diag = q  # 2*T at coincident arguments is the identity for ReLU
    two_t_ab, two_td_ab = 2.0 * _relu_t(q, qab), 2.0 * _relu_tdot(q, qab)
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


def integrate_residual(s0: OdeKernelState, times: Sequence[float]) -> List[OdeKernelState]:
    """The residual flow from ``s0``, one state at each of ``times``.

    One adaptive DOP853 solve (rtol 1e-12, atol 1e-14) up to ``times[-1]``,
    read from its dense output; each state's ``t`` is its requested time
    exactly.  ``times`` must be finite, nonempty, at or after ``s0.t`` and
    strictly increasing, or ``ValueError`` is raised; a solver failure
    raises ``NonConvergenceError``, and so does, before any integration, a
    plain flow whose diagonal would pass 1e300 by ``times[-1]`` (in closed
    form q = q0 e^dt and p = (p0 + q0 dt) e^dt).  The layer-norm variant
    holds a unit diagonal: its diagonal derivative ``-q + q`` is exactly
    0.0, so the solver never moves ``q_diag``, and a start state more than
    1e-6 off it is rejected with ``ValueError``.
    """
    variant = ResidualVariant(s0.variant)
    if variant is ResidualVariant.RESIDUAL_RELU_LAYERNORM and abs(s0.q_diag - 1.0) > 1e-6:
        raise ValueError(f"the layer-norm flow needs a unit diagonal, got q_diag={s0.q_diag!r}")
    times = [float(t) for t in times]
    if not (times and s0.t <= times[0] and all(a < b for a, b in zip(times, times[1:]))
            and times[-1] < math.inf):  # also rejects NaN
        raise ValueError(
            f"times must be finite, nonempty, at least t={s0.t} and strictly increasing: {times}"
        )
    if variant is ResidualVariant.RESIDUAL_RELU:
        dt = times[-1] - s0.t
        peak = max(abs(s0.q_diag), abs(s0.p_diag + s0.q_diag * dt))  # the diagonal over e^dt
        if peak > 0.0 and math.log(peak) + dt > math.log(_FLOW_BOUND):
            raise NonConvergenceError(
                f"the plain flow's diagonal passes {_FLOW_BOUND:g} before t={times[-1]}"
            )
    # scipy.integrate pulls in scipy.optimize (~16 MB RSS, ~0.3 s), which the CLI never needs
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: _residual_rhs(y, variant),
        (s0.t, times[-1]),
        [s0.q_diag, s0.q_ab, s0.p_diag, s0.p_ab],
        method="DOP853",
        dense_output=True,  # t_eval drops a time equal to s0.t when the span is empty
        rtol=1e-12,
        atol=1e-14,
    )
    if not sol.success:
        raise NonConvergenceError(sol.message)
    return [OdeKernelState(t, *map(float, y), variant) for t, y in zip(times, sol.sol(times).T)]
