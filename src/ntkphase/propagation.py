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

``apply_A`` sums each +-beta pair first, K[a] + (K[a+1] + K[a-1]) + ...,
so reversed pixels round every window sum the same way.  ``step_cnn`` maps
the state tile by tile through the kernel's own ``t_map`` and ``t_dot``,
which check each tile's covariance domain (one min/max pass for an
in-domain tile) and clip a tile's overshoot entry by entry, as one check
of the whole state would; only when a tile fails does the step check the
state from that tile on (every earlier tile passed), so the error quotes
its global maximum.  Each tile is a run of whole sample pairs of about
``_TILE_ENTRIES`` entries, so every pass stays in cache; the tiles are
cached, so a small state pays for its entries.  Each entry sees the same
operations in the same order as in one pass over the whole state, and
every Gaussian map acts entry by entry, so the result does not depend on
the tile size.  A readout is one reduction of the stored layout: a pooled
block's mean is the mean over it.

``step_cnn`` computes a state from the one before alone, into new arrays
or into the ones it is given, which may be the old state's own: each tile
forms its new NNGP in a tile buffer and compares it with the old tile, and
only then writes the NTK tile and the NNGP tile.  The new state says
whether its NNGP came back bit for bit (``nngp_fixed``).  The depth walk
behind ``propagate_fcn`` and ``propagate_cnn`` owns one state and holds two
state-sized arrays, its NNGP and NTK: its first step writes new arrays, or
the start's own when the caller hands the start over, and every later step
is in place; it allocates its two tile buffers once and hands each depth to
``emit`` as reached.  The NNGP update reads only the NNGP, so once a step
returns the NNGP bit for bit, every later step returns it again, the
domain and drift checks see the same input, and T_dot at it is already
known.  From there the walk computes ``sigma_w2 * T_dot`` once, a third
array, and steps the NTK alone in place, ``nngp + A(sigma_w2 * T_dot *
ntk)``, over the same tiles and in the same order as the full step; once
that returns the NTK too, the state repeats and the walk stops stepping
and drops its buffers.  Every state it hands out holds the full steps' bits.

Depth bookkeeping: the starting pair sets the NTK equal to the input NNGP,
so a state at ``depth`` steps corresponds to layer index ``depth + 1`` of
the closed-form depth laws (whose recursion starts from zero); see
``paper_layer``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
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
    offset.  ``nngp_fixed`` says whether the step that made the state
    returned its input's NNGP bit for bit, so that every later step returns
    it too.
    """

    nngp: np.ndarray  # (n_pairs, n_offsets, d)
    ntk: np.ndarray
    m: int
    filter_halfwidth: int
    depth: int
    nngp_fixed: bool = False

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
    """Input-layer kernels: NNGP is the feature second moment; the NTK is the NNGP's own array."""
    X = np.asarray(X, dtype=float)
    nngp = X @ X.T / X.shape[1]
    nngp = 0.5 * (nngp + nngp.T)
    return KernelPair(nngp=nngp, ntk=nngp, depth=0)


@lru_cache(maxsize=8)
def _upper(m: int) -> np.ndarray:
    """Read-only mask of an m x m upper triangle; in C order its entries are the pair order."""
    mask = np.triu(np.ones((m, m), dtype=bool))
    mask.flags.writeable = False
    return mask


def _as_pairs(kp: KernelPair) -> CnnKernel:
    """A dense pair as the one-pixel, window-one CNN kernel: a copy of its upper triangle."""
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


def _walk(ck: CnnKernel, h: Hyperparams, k: ActivationKernel, depths: Sequence[int], emit,
          own: bool):
    """Step ``ck`` repeatedly, yielding ``emit`` of the state at each requested depth.

    Every step writes the walk's own arrays in place, and ``ck``'s when
    ``own``; otherwise the first step writes new arrays.  Once a full
    ``step_cnn`` returns the NNGP bit for bit (``nngp_fixed``), the walk
    caches ``sigma_w2 * T_dot`` at it and advances the NTK alone
    (``_frozen_step``); once that returns the NTK bit for bit, the walk hands
    that state out at each deeper depth without stepping.  One pair of tile
    buffers serves every step, and the maps write into it: glibc hands a
    tile-sized array made and freed in each step back to the system (by
    munmap or by trimming the heap top) until a larger free raises its
    thresholds, so every step would fault its pages in again.
    """
    scratch = np.empty(_scratch_shape(ck))
    wtd = None  # sigma_w2 * T_dot at the fixed NNGP, once it is reached
    repeated = False  # whether the last step returned the whole state bit for bit
    for target in depths:
        while ck.depth < target and not repeated:
            if wtd is not None:
                repeated = _frozen_step(ck, wtd, scratch)
                ck = replace(ck, depth=ck.depth + 1)
                if repeated:  # no step follows, so the buffers go
                    scratch = wtd = None
                continue
            out = None
            if own:  # the depth-0 state may hold one array as both kernels
                out = (ck.nngp, np.empty_like(ck.nngp) if ck.ntk is ck.nngp else ck.ntk)
            ck, own = step_cnn(ck, h, k, out=out, scratch=scratch), True
            if ck.nngp_fixed:
                wtd = np.empty_like(ck.nngp)
                for s, _ in _pair_tiles(ck):  # step_cnn's multiply order: (sigma_w2 * T_dot) * ntk
                    k.t_dot(ck.nngp[s], out=wtd[s])
                    wtd[s] *= h.sigma_w2
        yield emit(replace(ck, depth=target))


def propagate_fcn(
    kp: KernelPair, h: Hyperparams, k: ActivationKernel, depths: Sequence[int]
) -> List[KernelPair]:
    """Propagate and collect the states at the requested (strictly increasing) depths."""
    flat = lambda ck: readout(ck, ReadoutMode.FLATTEN)
    return list(propagate_cnn(_as_pairs(kp), h, k, depths, emit=flat, own_start=True))


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
    (C-contiguous floats of the shape of ``K``, not overlapping it) when
    given.

    Entry a gets ``(K[a] + (K[a+1] + K[a-1]) + (K[a+2] + K[a-2]) + ...) *
    (1 / (2k + 1))`` (mod d), a copy at halfwidth 0.  Each pair sum is one add
    over the flat C-ordered buffer, redone in the ``beta`` columns at each end
    of a row, which wrap around.  Addition commutes, so a run on reversed
    pixels rounds every window sum the same way.
    """
    K = np.ascontiguousarray(K, dtype=float)
    _check_window(K.shape[-1], halfwidth)
    if out is None:
        out = np.empty_like(K)
    elif (out.shape != K.shape or out.dtype != float or not out.flags.c_contiguous
          or np.may_share_memory(out, K)):
        raise ValueError(
            f"out must be a C-contiguous float array of shape {K.shape} not overlapping K"
        )
    if halfwidth == 0:
        np.copyto(out, K)
        return out
    flat, pair = K.reshape(-1), out  # pair 1 is summed in out, then K added: a + b == b + a
    for beta in range(1, halfwidth + 1):  # pair[a] = K[a + beta] + K[a - beta] (mod d)
        if beta == 2:
            pair = np.empty_like(K)
        np.add(flat[2 * beta:], flat[:-2 * beta], out=pair.reshape(-1)[beta:-beta])
        np.add(K[..., beta:2 * beta], K[..., -beta:], out=pair[..., :beta])
        np.add(K[..., :beta], K[..., -2 * beta:-beta], out=pair[..., -beta:])
        out += K if beta == 1 else pair
    out *= 1.0 / (2 * halfwidth + 1)
    return out


def _gather_square(X: np.ndarray, flat_index: np.ndarray, out: np.ndarray | None = None):
    """X's trailing d x d blocks gathered: entry [..., r, c] is the flat ``flat_index[r, c]``.

    The result goes to new memory, or to ``out`` (C-contiguous floats of
    shape ``X.shape[:-2] + flat_index.shape``) when given.
    """
    lead = X.shape[:-2]
    out = np.empty(lead + flat_index.shape) if out is None else out
    flat = X.reshape(*lead, -1)
    np.take(flat, flat_index.ravel(), axis=-1, out=out.reshape(*lead, -1), mode="clip")
    return out


def _offset_index(d: int, n_offsets: int) -> np.ndarray:
    """Flat d x d block index of each offset-layout entry ``[o, a]`` (the first ``n_offsets``)."""
    o, a = np.indices((n_offsets, d))
    return a * d + (a + o) % d


def blocks_to_offsets(blocks: np.ndarray) -> np.ndarray:
    """(..., d, d) blocks to the offset layout: ``[..., o, a] = B[..., a, (a + o) mod d]``."""
    blocks = np.asarray(blocks, dtype=float)
    return _gather_square(blocks, _offset_index(blocks.shape[-1], blocks.shape[-1]))


def offsets_to_blocks(K: np.ndarray) -> np.ndarray:
    """C-contiguous (..., d, d) blocks, ``B[a, b] = K[(b - a) mod d, a]``, from every offset."""
    K = np.asarray(K, dtype=float)
    n_offsets, d = K.shape[-2:]
    if n_offsets != d:
        raise ValueError(
            f"d x d blocks need every pixel offset; this kernel stores {n_offsets} of {d}"
        )
    a, b = np.indices((d, d))
    return _gather_square(K, (b - a) % d * d + a)


def fourier_eigs(d: int, halfwidth: int) -> np.ndarray:
    """Eigenvalues of the diagonal-averaging operator, one per spatial mode."""
    _check_window(d, halfwidth)
    q = np.arange(d)
    beta = np.arange(-halfwidth, halfwidth + 1)
    return np.cos(2.0 * math.pi * np.outer(q, beta) / d).sum(axis=1) / (2 * halfwidth + 1)


def init_cnn_kernels(
    X: np.ndarray, halfwidth: int, n_pairs: int | None = None, n_offsets: int | None = None
) -> CnnKernel:
    """Input-layer kernels from channel second moments; the NTK is the NNGP array.

    The state holds the first ``n_pairs`` sample pairs in pair order (all by
    default) and the first ``n_offsets`` pixel offsets of each (all by
    default; 1 is all a flatten readout reads).  It is formed tile by tile,
    each tile's Gram blocks gathered straight into the offset layout; a
    pair's bits do not depend on which pairs it is formed with.
    """
    X = np.asarray(X, dtype=float)
    m, n_ch, d = X.shape
    _check_window(d, halfwidth)
    i, j = np.triu_indices(m)  # pair_index order
    n_pairs = len(i) if n_pairs is None else n_pairs
    n_offsets = d if n_offsets is None else n_offsets
    if not (0 <= n_pairs <= len(i) and 1 <= n_offsets <= d):
        raise ValueError(f"cannot store {n_pairs} of {len(i)} pairs and {n_offsets} of {d} offsets")
    index = _offset_index(d, n_offsets)
    nngp = np.empty((n_pairs, n_offsets, d))
    for s, _ in _tile_plan(m, n_pairs, d * d, _TILE_ENTRIES):  # tiles of Gram blocks
        gram = np.matmul(X[i[s]].transpose(0, 2, 1), X[j[s]])
        gram /= n_ch
        _gather_square(gram, index, out=nngp[s])
    return CnnKernel(nngp=nngp, ntk=nngp, m=m, filter_halfwidth=halfwidth, depth=0)


@lru_cache(maxsize=16)
def _tile_plan(m: int, n_pairs: int, pair_size: int, tile_entries: int) -> tuple:
    """Runs of whole sample pairs of about ``tile_entries`` entries, each with its (i, i) rows.

    The plan is shared by every caller, so its row arrays are read-only.
    """
    per_tile = max(1, tile_entries // pair_size)
    diag = np.array([i * m - i * (i - 1) // 2 for i in range(m)])  # pair_index(i, i)
    tiles = [slice(s, min(s + per_tile, n_pairs)) for s in range(0, n_pairs, per_tile)]
    plan = tuple((t, diag[(t.start <= diag) & (diag < t.stop)] - t.start) for t in tiles)
    for _, rows in plan:
        rows.flags.writeable = False
    return plan


def _pair_tiles(ck: CnnKernel) -> tuple:
    """The ``_tile_plan`` of ``ck``'s state at the current ``_TILE_ENTRIES``."""
    return _tile_plan(ck.m, ck.nngp.shape[0], math.prod(ck.nngp.shape[1:]), _TILE_ENTRIES)


def _scratch_shape(ck: CnnKernel) -> tuple:
    """The shape of a step's two tile buffers, each of the largest tile of ``ck``'s state."""
    tiles = _pair_tiles(ck)
    return (2, tiles[0][0].stop if tiles else 0, *ck.nngp.shape[1:])


def step_cnn(
    ck: CnnKernel, h: Hyperparams, k: ActivationKernel, out: tuple | None = None,
    scratch: np.ndarray | None = None,
) -> CnnKernel:
    """One convolutional layer (at one pixel and window one, the FCN layer): maps, then averaging.

    Runs tile by tile over whole sample pairs, planned once per shape, so
    each pass stays in cache; every entry sees the operations, in order, of
    the untiled ``sigma_w2 * A(T(K)) + sigma_b2`` and ``nngp + A(sigma_w2 *
    T_dot(K) * ntk)``, so the result does not depend on the tile size.
    Each tile forms its new NNGP in a tile buffer and compares it with the
    old tile (until one differs), then writes the NTK tile and the NNGP
    tile; the new state's ``nngp_fixed`` says whether every tile came back
    bit for bit.  The new state holds new arrays, or the given ``out =
    (nngp, ntk)``: C-contiguous floats of its shape that share no memory
    with each other, each the state's own array of its kind (the step is
    then in place, with the same bits) or sharing no memory with the
    state.  A step that raises may leave ``out`` part written.  The tile
    buffers, one for the new NNGP and one for the maps' values, are
    ``scratch`` when given (floats of the shape ``_scratch_shape(ck)``,
    sharing no memory with the state or ``out``; the maps and ``apply_A``
    refuse a wrong shape or type before anything is written), so that a
    walk allocates them once, else new ones.
    """
    if h.activation is not k.activation:
        raise ValueError(f"h steps {h.activation.value} layers but k maps {k.activation.value}")
    hw = ck.filter_halfwidth
    if out and (np.may_share_memory(*out) or any(
            a.shape != ck.nngp.shape or a.dtype != float or not a.flags.c_contiguous
            or a is not own and (np.may_share_memory(a, ck.nngp) or np.may_share_memory(a, ck.ntk))
            for a, own in zip(out, (ck.nngp, ck.ntk)))):
        raise ValueError(f"out must be two C-contiguous float arrays of shape {ck.nngp.shape} "
                         "sharing no memory with each other, each the state's own array of its "
                         "kind or sharing none with the state")
    if scratch is None:
        scratch = np.empty(_scratch_shape(ck))
    elif any(np.may_share_memory(scratch, a) for a in (ck.nngp, ck.ntk, *(out or ()))):
        raise ValueError("scratch must share no memory with the state or out")
    nngp, ntk = out or (np.empty_like(ck.nngp), np.empty_like(ck.nngp))
    drift = 0.0  # the largest so far; a NaN stays
    fixed = True  # whether every tile so far came back bit for bit
    try:
        for s, rows in _pair_tiles(ck):
            q = ck.nngp[s]
            new, mapped = scratch[:, :len(q)]
            apply_A(k.t_map(q, out=mapped), hw, out=new)
            new *= h.sigma_w2
            new += h.sigma_b2
            if rows.size:  # offset 0 of (i, i): the pixel variances
                drift = np.abs(new[rows, 0] - k.qstar).max(initial=drift)
                new[rows, 0] = k.qstar
            fixed = fixed and np.array_equal(new, q)
            td = k.t_dot(q, out=mapped)
            td *= h.sigma_w2
            td *= ck.ntk[s]
            tile_ntk = ntk[s]
            apply_A(td, hw, out=tile_ntk)
            tile_ntk += new
            nngp[s] = new
    except CovarianceDomainError:  # tile s reaches past the domain and no earlier tile does,
        k._check_domain(ck.nngp[s.start:])  # so this raises again, quoting the global maximum
        raise
    if not drift <= _DIAG_DRIFT_TOL:  # a NaN drift fails too
        raise DiagonalDriftError(
            f"NNGP diagonal drifted {drift:.3e} from qstar={k.qstar:.6g}"
        )
    return CnnKernel(nngp, ntk, ck.m, hw, ck.depth + 1, nngp_fixed=fixed)


def _frozen_step(ck: CnnKernel, wtd: np.ndarray, scratch: np.ndarray) -> bool:
    """``step_cnn`` in place on a state whose NNGP is its own image, with ``wtd = sigma_w2 *
    T_dot(nngp)``; returns whether the NTK came back bit for bit.

    The NNGP carries over; each tile of the NTK gets ``nngp + A(wtd * ntk)``,
    over the same tiles as the full step, so every entry sees its
    operations.  As in ``step_cnn``, the new tile is formed in ``scratch``'s
    tile buffers and compared with the old one before it is written.
    """
    repeated = True
    for s, _ in _pair_tiles(ck):
        tile_ntk = ck.ntk[s]
        new, product = scratch[:, :len(tile_ntk)]
        apply_A(np.multiply(wtd[s], tile_ntk, out=product), ck.filter_halfwidth, out=new)
        new += ck.nngp[s]
        repeated = repeated and np.array_equal(new, tile_ntk)
        tile_ntk[...] = new
    return repeated


def propagate_cnn(
    ck: CnnKernel, h: Hyperparams, k: ActivationKernel, depths: Sequence[int], emit=None,
    own_start: bool = False,
) -> Iterator:
    """Yield the state at each requested depth as it is reached; depths are checked at the call.

    With ``emit``, yield ``emit(state)`` instead: ``emit`` gets the walk's
    own state, which the next step overwrites, so it must keep no array of
    it.  Without it, each yielded state is a copy.  The walk never writes
    to anything it has yielded, nor to ``ck`` unless ``own_start``: a
    caller that hands its start over, and reads it no more, lets the walk
    step the start's arrays in place, so that the walk allocates no NNGP of
    its own (and, for a start whose NTK is its NNGP, one NTK)."""
    _check_depths(depths, ck.depth)
    copied = lambda ck: replace(ck, nngp=ck.nngp.copy(), ntk=ck.ntk.copy())
    return _walk(ck, h, k, depths, emit or copied, own_start)


def readout(ck: CnnKernel, mode: ReadoutMode) -> KernelPair:
    """Collapse spatial indices: flatten averages the block trace (offset 0
    over positions), pooling the whole block, which is the mean over the
    stored layout (every offset at every position).  The pairs past a
    state's stored prefix read NaN."""
    flatten = ReadoutMode(mode) is ReadoutMode.FLATTEN
    n_offsets, d = ck.nngp.shape[1:]
    if not flatten and n_offsets != d:
        raise ValueError(f"pooling needs every pixel offset; this kernel stores {n_offsets} of {d}")
    upper = _upper(ck.m)

    def square(K):
        pairs = np.full(ck.m * (ck.m + 1) // 2, np.nan)
        pairs[:len(K)] = K[:, 0].mean(axis=-1) if flatten else K.mean(axis=(-2, -1))
        out = np.empty((ck.m, ck.m))
        out[upper] = out.T[upper] = pairs
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
