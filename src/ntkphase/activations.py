"""Gaussian expectation maps for infinite-width kernel recursions.

For an activation ``phi`` and a bivariate Gaussian ``(u, v)`` with equal
variances ``qstar`` and covariance ``q_ab``, this module evaluates

    t_map(q_ab)  = E[phi(u) phi(v)]
    t_dot(q_ab)  = E[phi'(u) phi'(v)]
    t_ddot(q_ab) = E[phi''(u) phi''(v)]

restricted to the fixed-diagonal slice that the kernel recursions live on
(every input is normalized to variance ``qstar``, so the maps reduce to
scalar functions of the off-diagonal entry).  By Price's theorem each map
is the q_ab-derivative of the one before it.

Closed forms: Erf uses the arcsine kernel and its derivatives, ReLU the
arc-cosine kernel of order one; ReLU's phi'' is a delta, so its t_ddot is
the closed form 1/(2 pi sqrt(qstar^2 - q_ab^2)) on either backend.  Tanh
evaluates all three maps by quadrature of phi, phi' and phi''.  The
quadrature backend is a Gaussian-quadrature evaluation that is independent
of the closed forms: tensorized Gauss-Hermite after Cholesky whitening for
smooth activations, and for the kinked ReLU/step integrands a symmetrized
whitening whose half-line kink pieces reduce exactly to Gauss-Laguerre
integrals of analytic functions (plain tensor Gauss-Hermite stalls at ~1e-3
absolute error for those).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erf as _erf

from .errors import CovarianceDomainError

__all__ = ["Activation", "ActivationKernel", "diag_second_moment"]

_DOMAIN_SLACK = 1e-12
_SQRT_PI = math.sqrt(math.pi)
_QUAD_CHUNK = 2**18  # integrand values per _quad_smooth chunk
_GEMV_BLOCK = 4  # entries per _quad_smooth padding block
# numpy's hermgauss loses its weights past 370 nodes (all zero at 371, NaN from 372)
_MAX_NODES = 370


class Activation(str, enum.Enum):
    ERF = "erf"
    RELU = "relu"
    TANH = "tanh"


@lru_cache(maxsize=8)
def _hermgauss(n: int):
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w


@lru_cache(maxsize=8)
def _laggauss(n: int):
    # Golub-Welsch on the Laguerre Jacobi matrix; numpy's laggauss
    # overflows in the polynomial recurrence for n >~ 120.
    k = np.arange(n, dtype=float)
    off = np.arange(1.0, n)
    jac = np.diag(2.0 * k + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    return nodes, vecs[0] ** 2


def _check_nodes(nodes: int) -> None:
    if not 2 <= nodes <= _MAX_NODES:
        raise ValueError(f"{nodes} quadrature nodes; need between 2 and {_MAX_NODES}")


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# closed forms


def _erf_t(qstar, q):
    if np.ndim(q) == 0:
        return (2.0 / math.pi) * np.arcsin(2.0 * q / (1.0 + 2.0 * qstar))
    out = 2.0 * q  # the one temporary; the rest runs in place, in the same order
    out /= 1.0 + 2.0 * qstar
    np.arcsin(out, out=out)
    out *= 2.0 / math.pi
    return out


def _erf_tdot(qstar, q):
    if np.ndim(q) == 0:
        return (4.0 / math.pi) / np.sqrt((1.0 + 2.0 * qstar) ** 2 - 4.0 * q * q)
    out = 4.0 * q
    out *= q
    np.subtract((1.0 + 2.0 * qstar) ** 2, out, out=out)
    np.sqrt(out, out=out)
    np.divide(4.0 / math.pi, out, out=out)
    return out


def _erf_tddot(qstar, q):
    return (16.0 * q / math.pi) * ((1.0 + 2.0 * qstar) ** 2 - 4.0 * q * q) ** -1.5


def _relu_theta(qstar, q):
    # acos(q/qstar) evaluated as 2*asin(sqrt((1-c)/2)): exact identity,
    # keeps full relative precision as q -> qstar where the critical-line
    # fractional laws need it.
    c = np.clip(q / qstar, -1.0, 1.0)
    return 2.0 * np.arcsin(np.sqrt(0.5 * (1.0 - c)))


def _relu_t(qstar, q):
    theta = _relu_theta(qstar, q)
    return (qstar / (2.0 * math.pi)) * (np.sin(theta) + (math.pi - theta) * np.cos(theta))


def _relu_tdot(qstar, q):
    return (math.pi - _relu_theta(qstar, q)) / (2.0 * math.pi)


def _relu_tddot(qstar, q):
    # E[delta(u) delta(v)]: the density of (u, v) at the origin
    return 1.0 / (2.0 * math.pi * qstar * np.sin(_relu_theta(qstar, q)))


_CLOSED = {
    Activation.ERF: (_erf_t, _erf_tdot, _erf_tddot),
    Activation.RELU: (_relu_t, _relu_tdot, _relu_tddot),
}


# ---------------------------------------------------------------------------
# quadrature backend


def _quad_smooth(phi, qstar, q, nodes):
    """Tensor Gauss-Hermite for E[phi(u) phi(v)], Cholesky-whitened.

    Evaluates the full nodes x nodes rule over chunks of entries holding at
    most ``_QUAD_CHUNK`` integrand values (or one block of four entries), so
    a scalar call is one vectorized evaluation and a large block array stays
    within that bound.

    The last contraction is one BLAS gemv per chunk.  OpenBLAS sums its rows
    in blocks of four and rounds a trailing one to three rows differently,
    so chunks hold whole blocks and an array is padded to whole blocks: an
    entry's value then does not depend on its place in the array (a CNN
    kernel that holds offset 0 alone maps to the same bits).  A lone entry
    is not padded and keeps its single-row rounding.
    """
    x, w = _hermgauss(nodes)
    q = np.asarray(q, dtype=float)
    l11 = math.sqrt(qstar)
    l21 = (q / l11).ravel()
    l22 = np.sqrt(np.maximum(qstar - l21 * l21, 0.0))
    if l21.size > 1:
        pad = (0, -l21.size % _GEMV_BLOCK)
        l21, l22 = np.pad(l21, pad), np.pad(l22, pad)
    sqrt2 = math.sqrt(2.0)
    pu = phi(sqrt2 * l11 * x) * w
    chunk = _GEMV_BLOCK * max(1, _QUAD_CHUNK // (_GEMV_BLOCK * nodes * nodes))
    acc = np.empty_like(l21)
    for s in range(0, l21.size, chunk):
        a = l21[s : s + chunk, None, None]
        b = l22[s : s + chunk, None, None]
        v = sqrt2 * (a * x[:, None] + b * x)  # (entries, outer, inner)
        acc[s : s + chunk] = (phi(v) @ w) @ pu
    return acc[: q.size].reshape(q.shape) / math.pi


def _relu_quad_pieces(kappa, nodes):
    """Laguerre integrals of the analytic kink pieces, correlation c >= 0.

    With the symmetric whitening u = a(px - my), v = a(px + my) and
    kappa = m/p <= 1, the rectified second moments reduce to:

      E[x^2 1(px > m|y|)] = 1/2 + (1/sqrt(pi)) * L[f1]
      E[y^2 1(px > m|y|)] = 1/2 - (1/sqrt(pi)) * L[f2]
      P(u > 0, v > 0)     = 1/2 - (1/(2 sqrt(pi))) * L[f0]

    where L[f] = sum of Laguerre-weighted f(t) and every integrand is
    analytic in t (the |y| fold is absorbed by t = y^2/2).  ``kappa`` may be
    an array; each piece then has its shape.
    """
    t, lw = _laggauss(nodes)
    rt = np.sqrt(t)
    kappa = np.asarray(kappa)[..., None]
    erf_k = _erf(kappa * rt)
    f0 = erf_k / rt
    f1 = kappa * math.sqrt(2.0) * _norm_pdf(kappa * np.sqrt(2.0 * t)) - 0.5 * f0
    f2 = rt * erf_k
    return f0 @ lw, f1 @ lw, f2 @ lw


def _relu_reflect(qstar, q):
    """(c, p2, m2, kappa) at |c|, with c = q/qstar clipped into [-1, 1].

    The pieces are evaluated at |c| and reflected back below; c = 1 gives
    kappa = 0, where every piece vanishes.
    """
    c = np.clip(q / qstar, -1.0, 1.0)
    a = np.abs(c)
    p2, m2 = 0.5 * (1.0 + a), 0.5 * (1.0 - a)
    return c, p2, m2, np.sqrt(m2 / p2)


def _quad_relu_t(qstar, q, nodes):
    c, p2, m2, kappa = _relu_reflect(qstar, q)
    _, l1, l2 = _relu_quad_pieces(kappa, nodes)
    ex2 = 0.5 + l1 / _SQRT_PI
    ey2 = 0.5 - l2 / _SQRT_PI
    # E[relu(u) relu(v)] = c*qstar/2 + the same expectation at correlation -c
    return np.minimum(c, 0.0) * qstar / 2.0 + qstar * (p2 * ex2 - m2 * ey2)


def _quad_relu_tdot(qstar, q, nodes):
    c, _, _, kappa = _relu_reflect(qstar, q)
    l0, _, _ = _relu_quad_pieces(kappa, nodes)
    p = 0.5 - l0 / (2.0 * _SQRT_PI)
    # P(u>0, v>0) at correlation c equals 1/2 - P(u>0, v>0) at -c
    return np.where(c < 0.0, 0.5 - p, p)


# phi and its first two derivatives, for the Gauss-Hermite route (Price's
# theorem: the order-n map is E[phi^(n)(u) phi^(n)(v)])
_PHI = {
    Activation.ERF: (
        lambda z: _erf(z),
        lambda z: (2.0 / _SQRT_PI) * np.exp(-z * z),
        lambda z: (-4.0 / _SQRT_PI) * z * np.exp(-z * z),
    ),
    Activation.TANH: (
        np.tanh,
        lambda z: 1.0 / np.cosh(z) ** 2,
        lambda z: -2.0 * np.tanh(z) / np.cosh(z) ** 2,
    ),
}


def diag_second_moment(activation: Activation, q, nodes: int = 128):
    """E[phi(u)^2] for u ~ N(0, q): the diagonal (equal-argument) map.

    This is the map whose fixed point sets the normalized variance; unlike
    the off-diagonal maps it takes the common variance itself as argument.
    """
    _check_nodes(nodes)
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise CovarianceDomainError("variance must be nonnegative")
    if activation is Activation.ERF:
        return (2.0 / math.pi) * np.arcsin(2.0 * q / (1.0 + 2.0 * q))
    if activation is Activation.RELU:
        return q / 2.0
    x, w = _hermgauss(nodes)
    u = math.sqrt(2.0) * np.sqrt(q)[..., None] * x
    return (np.tanh(u) ** 2) @ w / _SQRT_PI


@dataclass(frozen=True)
class ActivationKernel:
    """The maps t_map / t_dot / t_ddot at a fixed diagonal variance.

    t_ddot is E[phi''(u) phi''(v)]: closed form for Erf and ReLU, quadrature
    of phi'' for Tanh.  backend "closed" uses the arcsine/arc-cosine closed
    forms where they exist (Erf, ReLU); Tanh always evaluates by quadrature.
    backend "quadrature" forces the Gaussian-quadrature route with ``nodes``
    points per rule (2 to 370), which is the independent oracle the closed
    forms are checked against; ReLU's t_ddot (phi'' a delta) stays the closed
    form there.  Instances are immutable and safe to share across threads.
    """

    activation: Activation
    qstar: float
    backend: str = "closed"
    nodes: int = 128

    def __post_init__(self):
        if self.qstar <= 0:
            raise ValueError("qstar must be positive")
        if self.backend not in ("closed", "quadrature"):
            raise ValueError(f"unknown backend {self.backend!r}")
        _check_nodes(self.nodes)
        object.__setattr__(self, "activation", Activation(self.activation))

    # -- helpers ----------------------------------------------------------

    def _check_domain(self, q, strict: bool = False):
        """``q`` as floats, clipped into [-qstar, qstar] if it overshoots.

        One min/max pass decides: an array already inside the domain is
        returned as it is, and only one that reaches past it (or holds a NaN,
        which hides its reach) gets the full check and a clipped copy.
        """
        q = np.asarray(q, dtype=float)
        reach = max(-q.min(), q.max()) if q.size else 0.0  # NaN if q holds a NaN
        if reach < self.qstar or (reach == self.qstar and not strict):
            return q
        bound = self.qstar * (1.0 + _DOMAIN_SLACK)
        if np.any(np.abs(q) > bound):
            raise CovarianceDomainError(
                f"|q_ab| up to {np.max(np.abs(q)):.6g} exceeds qstar={self.qstar:.6g}"
            )
        if strict and np.any(np.abs(q) >= self.qstar):
            raise CovarianceDomainError("t_ddot needs |q_ab| strictly inside (-qstar, qstar)")
        return np.clip(q, -self.qstar, self.qstar)

    def _evaluate(self, order: int, q_ab):
        """The order-th map E[phi^(order)(u) phi^(order)(v)] at ``q_ab``.

        ReLU's phi'' is a delta, so its order-2 map is the closed form on
        either backend and needs |q_ab| strictly inside (-qstar, qstar).
        """
        scalar = np.isscalar(q_ab) or np.ndim(q_ab) == 0
        relu = self.activation is Activation.RELU
        q = self._check_domain(q_ab, strict=relu and order == 2)
        if self.activation in _CLOSED and (self.backend == "closed" or (relu and order == 2)):
            out = _CLOSED[self.activation][order](self.qstar, q)
        elif relu:
            out = (_quad_relu_t, _quad_relu_tdot)[order](self.qstar, q, self.nodes)
        else:
            out = _quad_smooth(_PHI[self.activation][order], self.qstar, q, self.nodes)
        return float(out) if scalar else np.asarray(out)

    # -- the three maps ----------------------------------------------------

    def t_map(self, q_ab):
        """E[phi(u) phi(v)]; accepts scalars or arrays of off-diagonals."""
        return self._evaluate(0, q_ab)

    def t_dot(self, q_ab):
        """E[phi'(u) phi'(v)], the derivative of t_map in q_ab."""
        return self._evaluate(1, q_ab)

    def t_ddot(self, q_ab):
        """E[phi''(u) phi''(v)], the second derivative of t_map in q_ab."""
        return self._evaluate(2, q_ab)
