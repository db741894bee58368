"""Gaussian expectation maps for infinite-width kernel recursions.

For an activation ``phi`` and a bivariate Gaussian ``(u, v)`` with equal
variances ``qstar`` and covariance ``q_ab``, this module evaluates

    t_map(q_ab)  = E[phi(u) phi(v)]
    t_dot(q_ab)  = E[phi'(u) phi'(v)]
    t_ddot(q_ab) = d^2/dq_ab^2 t_map(q_ab)

restricted to the fixed-diagonal slice that the kernel recursions live on
(every input is normalized to variance ``qstar``, so the maps reduce to
scalar functions of the off-diagonal entry).

Closed forms: Erf uses the arcsine kernel, ReLU the arc-cosine kernel of
order one.  The quadrature backend is a Gaussian-quadrature evaluation that
is independent of those closed forms: tensorized Gauss-Hermite after
Cholesky whitening for smooth activations, and for the kinked ReLU/step
integrands a symmetrized whitening whose half-line kink pieces reduce
exactly to Gauss-Laguerre integrals of analytic functions (plain tensor
Gauss-Hermite stalls at ~1e-3 absolute error for those).
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


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# closed forms


def _erf_t(qstar, q):
    return (2.0 / math.pi) * np.arcsin(2.0 * q / (1.0 + 2.0 * qstar))


def _erf_tdot(qstar, q):
    return (4.0 / math.pi) / np.sqrt((1.0 + 2.0 * qstar) ** 2 - 4.0 * q * q)


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


# ---------------------------------------------------------------------------
# quadrature backend


def _quad_smooth(phi, qstar, q, nodes):
    """Tensor Gauss-Hermite for E[phi(u) phi(v)], Cholesky-whitened.

    Evaluates the full nodes x nodes rule over chunks of entries holding at
    most ``_QUAD_CHUNK`` integrand values, so a scalar call is one
    vectorized evaluation and a large block array stays within that bound.
    """
    x, w = _hermgauss(nodes)
    q = np.asarray(q, dtype=float)
    l11 = math.sqrt(qstar)
    l21 = (q / l11).ravel()
    l22 = np.sqrt(np.maximum(qstar - l21 * l21, 0.0))
    sqrt2 = math.sqrt(2.0)
    pu = phi(sqrt2 * l11 * x) * w
    chunk = max(1, _QUAD_CHUNK // (nodes * nodes))
    acc = np.empty_like(l21)
    for s in range(0, l21.size, chunk):
        a = l21[s : s + chunk, None, None]
        b = l22[s : s + chunk, None, None]
        v = sqrt2 * (a * x[:, None] + b * x)  # (entries, outer, inner)
        acc[s : s + chunk] = (phi(v) @ w) @ pu
    return acc.reshape(q.shape) / math.pi


def _relu_quad_pieces(kappa, nodes):
    """Laguerre integrals of the analytic kink pieces, correlation c >= 0.

    With the symmetric whitening u = a(px - my), v = a(px + my) and
    kappa = m/p <= 1, the rectified second moments reduce to:

      E[x^2 1(px > m|y|)] = 1/2 + (1/sqrt(pi)) * L[f1]
      E[y^2 1(px > m|y|)] = 1/2 - (1/sqrt(pi)) * L[f2]
      P(u > 0, v > 0)     = 1/2 - (1/(2 sqrt(pi))) * L[f0]

    where L[f] = sum of Laguerre-weighted f(t) and every integrand is
    analytic in t (the |y| fold is absorbed by t = y^2/2).
    """
    t, lw = _laggauss(nodes)
    rt = np.sqrt(t)
    erf_k = _erf(kappa * rt)
    f0 = erf_k / rt
    f1 = kappa * math.sqrt(2.0) * _norm_pdf(kappa * np.sqrt(2.0 * t)) - 0.5 * f0
    f2 = rt * erf_k
    return lw @ f0, lw @ f1, lw @ f2


def _quad_relu_t(qstar, q, nodes):
    c = float(np.clip(q / qstar, -1.0, 1.0))
    if c < 0.0:
        # E[relu(u) relu(v)] = c*qstar/2 + same expectation at correlation -c
        return c * qstar / 2.0 + _quad_relu_t(qstar, -q, nodes)
    if c == 1.0:
        return qstar / 2.0
    p2, m2 = 0.5 * (1.0 + c), 0.5 * (1.0 - c)
    kappa = math.sqrt(m2 / p2)
    l0, l1, l2 = _relu_quad_pieces(kappa, nodes)
    ex2 = 0.5 + l1 / _SQRT_PI
    ey2 = 0.5 - l2 / _SQRT_PI
    return qstar * (p2 * ex2 - m2 * ey2)


def _quad_relu_tdot(qstar, q, nodes):
    c = float(np.clip(q / qstar, -1.0, 1.0))
    if c < 0.0:
        # P(u>0, v>0) at correlation c equals 1/2 - P(u>0, v>0) at -c
        return 0.5 - _quad_relu_tdot(qstar, -q, nodes)
    if c == 1.0:
        return 0.5
    kappa = math.sqrt((1.0 - c) / (1.0 + c))
    l0, _, _ = _relu_quad_pieces(kappa, nodes)
    return 0.5 - l0 / (2.0 * _SQRT_PI)


_PHI = {
    Activation.ERF: (lambda z: _erf(z), lambda z: (2.0 / _SQRT_PI) * np.exp(-z * z)),
    Activation.TANH: (np.tanh, lambda z: 1.0 / np.cosh(z) ** 2),
    Activation.RELU: (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
}


def diag_second_moment(activation: Activation, q, nodes: int = 128):
    """E[phi(u)^2] for u ~ N(0, q): the diagonal (equal-argument) map.

    This is the map whose fixed point sets the normalized variance; unlike
    the off-diagonal maps it takes the common variance itself as argument.
    """
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

    backend "closed" uses the arcsine/arc-cosine closed forms where they
    exist (Erf, ReLU); Tanh always evaluates by quadrature.  backend
    "quadrature" forces the Gaussian-quadrature route with ``nodes`` points
    per rule, which is the independent oracle the closed forms are checked
    against.  Instances are immutable and safe to share across threads.
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
        if self.nodes < 2:
            raise ValueError("need at least 2 quadrature nodes")
        object.__setattr__(self, "activation", Activation(self.activation))

    # -- helpers ----------------------------------------------------------

    def _check_domain(self, q, strict: bool = False):
        q = np.asarray(q, dtype=float)
        bound = self.qstar * (1.0 + _DOMAIN_SLACK)
        if np.any(np.abs(q) > bound):
            raise CovarianceDomainError(
                f"|q_ab| up to {np.max(np.abs(q)):.6g} exceeds qstar={self.qstar:.6g}"
            )
        if strict and np.any(np.abs(q) >= self.qstar):
            raise CovarianceDomainError("t_ddot needs |q_ab| strictly inside (-qstar, qstar)")
        return np.clip(q, -self.qstar, self.qstar)

    def _use_closed(self) -> bool:
        return self.backend == "closed" and self.activation is not Activation.TANH

    # -- the three maps ----------------------------------------------------

    def t_map(self, q_ab):
        """E[phi(u) phi(v)]; accepts scalars or arrays of off-diagonals."""
        scalar = np.isscalar(q_ab) or np.ndim(q_ab) == 0
        q = self._check_domain(q_ab)
        if self._use_closed():
            out = (_erf_t if self.activation is Activation.ERF else _relu_t)(self.qstar, q)
        elif self.activation is Activation.RELU:
            out = np.vectorize(lambda s: _quad_relu_t(self.qstar, s, self.nodes))(q)
        else:
            out = _quad_smooth(_PHI[self.activation][0], self.qstar, q, self.nodes)
        return float(out) if scalar else np.asarray(out)

    def t_dot(self, q_ab):
        """E[phi'(u) phi'(v)]."""
        scalar = np.isscalar(q_ab) or np.ndim(q_ab) == 0
        q = self._check_domain(q_ab)
        if self._use_closed():
            out = (_erf_tdot if self.activation is Activation.ERF else _relu_tdot)(self.qstar, q)
        elif self.activation is Activation.RELU:
            out = np.vectorize(lambda s: _quad_relu_tdot(self.qstar, s, self.nodes))(q)
        else:
            out = _quad_smooth(_PHI[self.activation][1], self.qstar, q, self.nodes)
        return float(out) if scalar else np.asarray(out)

    def t_ddot(self, q_ab):
        """Second derivative of t_map in the off-diagonal argument.

        Erf is analytic; other activations use Richardson-extrapolated
        central (one-sided at the domain edge) second differences of t_map,
        which is all the sub-leading correction formulas need.
        """
        scalar = np.isscalar(q_ab) or np.ndim(q_ab) == 0
        if self.activation is Activation.ERF:
            q = self._check_domain(q_ab)
            out = _erf_tddot(self.qstar, q)
            return float(out) if scalar else np.asarray(out)
        q = self._check_domain(q_ab, strict=(self.activation is Activation.RELU))
        out = np.vectorize(self._fd_second)(q)
        return float(out) if scalar else np.asarray(out)

    def _fd_second(self, q: float) -> float:
        gap = self.qstar - abs(q)
        h = 0.01 * max(self.qstar, 1.0)
        if self.activation is Activation.RELU:
            h = min(h, gap / 4.0)  # keep the stencil strictly inside the domain
        f = self.t_map

        def central(step):
            return (f(q + step) - 2.0 * f(q) + f(q - step)) / step**2

        def onesided(step):
            # second-order stencil pointing away from the nearer boundary
            s = -step if q > 0 else step
            return (2.0 * f(q) - 5.0 * f(q + s) + 4.0 * f(q + 2 * s) - f(q + 3 * s)) / step**2

        if gap >= 4.0 * h and abs(q) + h <= self.qstar:
            d1, d2 = central(h), central(h / 2.0)
        else:
            h = min(h, self.qstar / 2.0)
            d1, d2 = onesided(h), onesided(h / 2.0)
        return (4.0 * d2 - d1) / 3.0  # Richardson: cancel the O(h^2) term
