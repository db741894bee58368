"""Gaussian expectation maps for infinite-width kernel recursions.

For an activation ``phi`` and a bivariate Gaussian ``(u, v)`` with equal
variances ``qstar`` and covariance ``q_ab``, this module evaluates

    t_map(q_ab)  = E[phi(u) phi(v)]
    t_dot(q_ab)  = E[phi'(u) phi'(v)]
    t_ddot(q_ab) = E[phi''(u) phi''(v)]

restricted to the fixed-diagonal slice that the kernel recursions live on
(every input is normalized to variance ``qstar``, so the maps reduce to
scalar functions of the off-diagonal entry).  By Price's theorem each map
is the q_ab-derivative of the one before it.  The diagonal map E[phi(u)^2]
is t_map at q_ab = qstar.  Every value comes from one rule per (activation,
backend, order), ``_map``, entry by entry.

Closed forms: Erf uses the arcsine kernel and its derivatives, ReLU the
arc-cosine kernel of order one; ReLU's phi'' is a delta, so its t_ddot is
the closed form 1/(2 pi sqrt(qstar^2 - q_ab^2)) on either backend.  Tanh has
no closed form; on the closed backend each of its maps is a Chebyshev table
in c = q_ab/qstar, built once per (qstar, order) from a tensor trapezoid rule
on the Gaussian weight and evaluated by Clenshaw's recurrence; at |c| = 1
the maps are the 1-D trapezoid rule E[phi^(order)(u)^2].  The quadrature
backend is a Gaussian-quadrature evaluation that is independent of the
closed forms and the tables: tensorized Gauss-Hermite after Cholesky
whitening for smooth activations (1-D at |c| = 1), and for the kinked
ReLU/step integrands a symmetrized whitening whose half-line kink pieces
reduce exactly to Gauss-Laguerre integrals of analytic functions (plain
tensor Gauss-Hermite stalls at ~1e-3 absolute error for those).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import rfft

from .errors import CovarianceDomainError

__all__ = ["Activation", "ActivationKernel", "diag_second_moment"]

_DOMAIN_SLACK = 1e-12
_SQRT_PI = math.sqrt(math.pi)
_QUAD_CHUNK = 2**18  # integrand values per _quad_smooth chunk
# numpy's hermgauss loses its weights past 370 nodes (all zero at 371, NaN from 372)
_MAX_NODES = 370
_TRAP_STEP = 0.2  # Tanh trapezoid step in x ~ N(0, 1) at qstar <= 1
_TRAP_REACH = 9.0  # Tanh trapezoid nodes cover |x| <= this
_CHEB_N = 128  # Tanh tables interpolate at N + 1 Chebyshev-Lobatto points, N from 128
_CHEB_MAX_N = 4096  # up to this N, doubling ...
_CHEB_TAIL = 1e-15  # ... until the last coefficients fall below this share of the largest


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


def _check_rule(backend: str, nodes: int) -> None:
    if backend not in ("closed", "quadrature"):
        raise ValueError(f"unknown backend {backend!r}")
    if not 2 <= nodes <= _MAX_NODES:
        raise ValueError(f"{nodes} quadrature nodes; need between 2 and {_MAX_NODES}")


def _erf(z):
    # importing scipy.special takes ~0.3 s; only the quadrature backend reads erf
    from scipy.special import erf

    return erf(z)


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# closed forms


# Every map rule takes ``out``, None or a float array of an array q's shape, and computes its
# last operations in it, with the bits it has without one; a float q keeps the scalar operators.

# Over 0.5 + qstar, not 1 + 2 qstar: scaling a numerator and its denominator by a power of
# two is exact, so these keep the bits of 2q / (1 + 2q*) and (4/pi) / sqrt((1 + 2q*)^2 - 4q^2).
def _erf_t(qstar, q, out=None):
    # the one temporary (0-d for a float), or the given output array; then in place
    out = np.asarray(q / (0.5 + qstar)) if out is None else np.divide(q, 0.5 + qstar, out=out)
    np.arcsin(out, out=out)
    out *= 2.0 / math.pi
    return out


def _erf_tdot(qstar, q, out=None):
    out = np.asarray(q * q) if out is None else np.multiply(q, q, out=out)
    np.subtract((0.5 + qstar) ** 2, out, out=out)
    np.sqrt(out, out=out)
    np.divide(2.0 / math.pi, out, out=out)
    return out


def _erf_tddot(qstar, q, out=None):
    scale, power = 16.0 * q / math.pi, ((1.0 + 2.0 * qstar) ** 2 - 4.0 * q * q) ** -1.5
    return scale * power if out is None else np.multiply(scale, power, out=out)


def _relu_theta(qstar, q):
    # acos(q/qstar) evaluated as 2*asin(sqrt((1-c)/2)): exact identity,
    # keeps full relative precision as q -> qstar where the critical-line
    # fractional laws need it.  A float clips without a numpy call (the
    # residual flows evaluate one entry per call).
    c = q / qstar
    c = min(max(c, -1.0), 1.0) if isinstance(c, float) else np.clip(c, -1.0, 1.0)
    return 2.0 * np.arcsin(np.sqrt(0.5 * (1.0 - c)))


def _relu_t(qstar, q, out=None):
    theta = _relu_theta(qstar, q)
    scale, sines = qstar / (2.0 * math.pi), np.sin(theta)
    if out is None:
        return scale * (sines + (math.pi - theta) * np.cos(theta))
    np.add(sines, (math.pi - theta) * np.cos(theta), out=out)
    return np.multiply(scale, out, out=out)


def _relu_tdot(qstar, q, out=None):
    theta = _relu_theta(qstar, q)
    if out is None:
        return (math.pi - theta) / (2.0 * math.pi)
    return np.divide(np.subtract(math.pi, theta, out=out), 2.0 * math.pi, out=out)


def _relu_tddot(qstar, q, out=None):
    # E[delta(u) delta(v)]: the density of (u, v) at the origin
    density = 2.0 * math.pi * qstar * np.sin(_relu_theta(qstar, q))
    return 1.0 / density if out is None else np.divide(1.0, density, out=out)


_CLOSED = {
    Activation.ERF: (_erf_t, _erf_tdot, _erf_tddot),
    Activation.RELU: (_relu_t, _relu_tdot, _relu_tddot),
}


# ---------------------------------------------------------------------------
# quadrature backend


def _quad_smooth(phi, qstar, q, nodes, out=None):
    """Tensor Gauss-Hermite for E[phi(u) phi(v)], Cholesky-whitened.

    Evaluates the full nodes x nodes rule over chunks of entries holding at
    most ``_QUAD_CHUNK`` integrand values (or one entry), so a scalar call is
    one vectorized evaluation and a large block array stays within that
    bound.  Both contractions run per entry, so an entry's value does not
    depend on its place in the array or on the array's length.
    """
    x, w = _hermgauss(nodes)
    q = np.asarray(q, dtype=float)
    l11 = math.sqrt(qstar)
    l21 = (q / l11).ravel()
    l22 = np.sqrt(np.maximum(qstar - l21 * l21, 0.0))
    sqrt2 = math.sqrt(2.0)
    pu = (phi(sqrt2 * l11 * x) * w)[:, None]
    chunk = max(1, _QUAD_CHUNK // (nodes * nodes))
    acc = np.empty_like(l21)
    for s in range(0, l21.size, chunk):
        a = l21[s : s + chunk, None, None]
        b = l22[s : s + chunk, None, None]
        v = sqrt2 * (a * x[:, None] + b * x)  # (entries, outer, inner)
        acc[s : s + chunk] = ((phi(v) @ w)[:, None, :] @ pu).ravel()
    return np.divide(acc.reshape(q.shape), math.pi, out=out)


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


def _quad_relu_t(qstar, q, nodes, out=None):
    c, p2, m2, kappa = _relu_reflect(qstar, q)
    _, l1, l2 = _relu_quad_pieces(kappa, nodes)
    ex2 = 0.5 + l1 / _SQRT_PI
    ey2 = 0.5 - l2 / _SQRT_PI
    # E[relu(u) relu(v)] = c*qstar/2 + the same expectation at correlation -c
    return np.add(np.minimum(c, 0.0) * qstar / 2.0, qstar * (p2 * ex2 - m2 * ey2), out=out)


def _quad_relu_tdot(qstar, q, nodes, out=None):
    c, _, _, kappa = _relu_reflect(qstar, q)
    l0, _, _ = _relu_quad_pieces(kappa, nodes)
    p = 0.5 - l0 / (2.0 * _SQRT_PI)
    # P(u>0, v>0) at correlation c equals 1/2 - P(u>0, v>0) at -c
    out = np.subtract(0.5, p, out=np.empty(np.shape(c)) if out is None else out)
    np.copyto(out, p, where=~(c < 0.0))
    return out


# phi and its first two derivatives, for the Gauss-Hermite route (Price's
# theorem: the order-n map is E[phi^(n)(u) phi^(n)(v)])
_PHI = {
    Activation.ERF: (
        _erf,
        lambda z: (2.0 / _SQRT_PI) * np.exp(-z * z),
        lambda z: (-4.0 / _SQRT_PI) * z * np.exp(-z * z),
    ),
    Activation.TANH: (
        np.tanh,
        lambda z: 1.0 / np.cosh(z) ** 2,
        lambda z: -2.0 * np.tanh(z) / np.cosh(z) ** 2,
    ),
}


# ---------------------------------------------------------------------------
# Tanh tables (closed backend)


def _trapezoid(qstar):
    """Trapezoid nodes and weights for E[f(x)], x ~ N(0, 1), fine enough for phi(sqrt(qstar) x).

    The step shrinks as 1/sqrt(qstar), so it resolves tanh's poles at
    x = i pi / (2 sqrt(qstar)) equally well at every qstar; |x| <= 9 leaves a
    Gaussian tail below 1e-17.
    """
    h = _TRAP_STEP / math.sqrt(max(1.0, qstar))
    n = int(_TRAP_REACH / h)
    x = h * np.arange(-n, n + 1.0)
    return x, (h / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)


def _edge(phi, qstar, backend, nodes):
    """E[phi(u)^2], u ~ N(0, qstar): a smooth map at |c| = 1, by the backend's 1-D rule.

    The trapezoid rule of the Tanh tables on "closed", ``nodes``-point
    Gauss-Hermite on "quadrature".
    """
    if backend == "closed":
        x, w = _trapezoid(qstar)
        return float(w @ phi(math.sqrt(qstar) * x) ** 2)
    x, w = _hermgauss(nodes)
    return float(w @ phi(math.sqrt(2.0) * math.sqrt(qstar) * x) ** 2) / _SQRT_PI


@lru_cache(maxsize=256)
def _tanh_table(qstar, order):
    """Chebyshev coefficients of the order-th Tanh map in c = q_ab/qstar.

    Samples the map at the Chebyshev-Lobatto points c_j = cos(pi j / N) with
    c >= 0 (c = 1 from ``_edge``, the rest by the tensor trapezoid rule in
    whitened coordinates u = sqrt(qstar) x, v = sqrt(qstar)(c x + s y)) and
    fills c < 0 by parity: orders 0 and 2 are odd in c, order 1 is even.  A
    DCT-I turns the N + 1 values into interpolation coefficients; only those of
    the map's parity are returned, as floats for ``_clenshaw``.

    N starts at 128.  The maps lose smoothness at |c| = 1 as qstar grows, so
    while the last coefficients exceed ``_CHEB_TAIL`` of the largest, N
    doubles; the points nest, so only the new half is sampled.
    """
    phi = _PHI[Activation.TANH][order]
    x, w = _trapezoid(qstar)
    root = math.sqrt(qstar)
    # phi(u) phi(v) is unchanged by (x, y) -> (-x, -y): sum x >= 0, counting x > 0 twice
    xh = x[x >= 0.0]
    pu = np.where(xh > 0.0, 2.0, 1.0) * w[x >= 0.0] * phi(root * xh)
    rows = max(1, _QUAD_CHUNK // x.size)

    def sample(j, n):  # the map at c_j = cos(pi j / n), 0 < j <= n / 2
        c, s = math.sin(0.5 * math.pi * (n - 2 * j) / n), math.sin(math.pi * j / n)
        return sum(
            pu[r : r + rows] @ (phi(root * (c * xh[r : r + rows, None] + s * x)) @ w)
            for r in range(0, xh.size, rows)
        )

    odd = order != 1
    n = _CHEB_N
    f = np.array([_edge(phi, qstar, "closed", 0)] + [sample(j, n) for j in range(1, n // 2 + 1)])
    while True:
        full = np.concatenate([f, (-1.0 if odd else 1.0) * f[-2::-1]])  # c from 1 to -1
        coef = rfft(np.concatenate([full, full[-2:0:-1]])).real / n  # DCT-I
        coef[0] /= 2.0
        coef[-1] /= 2.0
        coef = coef[int(odd) :: 2]
        if np.max(np.abs(coef[-4:])) <= _CHEB_TAIL * np.max(np.abs(coef)) or n >= _CHEB_MAX_N:
            return tuple(coef.tolist())
        n *= 2
        f = np.insert(f, range(1, f.size), [sample(j, n) for j in range(1, n // 2, 2)])


def _clenshaw(coef, c, odd: bool, out=None):
    """sum_k coef[k] T_(2k + odd)(c), by Clenshaw's recurrence in y = T_2(c).

    Both T_2k(c) = T_k(y) and T_(2k+1)(c) obey t_(k+1) = 2y t_k - t_(k-1), so
    one recurrence serves both parities at half the terms of the full series.
    Elementwise: an entry's value does not depend on the array around it.
    """
    y = 2.0 * c * c - 1.0
    y2 = 2.0 * y
    b1 = b2 = 0.0
    for a in coef[:0:-1]:
        b1, b2 = a + y2 * b1 - b2, b1
    b0 = coef[0] + y2 * b1 - b2
    if out is None:
        return c * (b0 - b1) if odd else b0 - y * b1
    if odd:
        return np.multiply(c, np.subtract(b0, b1, out=out), out=out)
    return np.subtract(b0, np.multiply(y, b1, out=out), out=out)


def _map(activation, backend, nodes, qstar, order, q, out=None):
    """The order-th map E[phi^(order)(u) phi^(order)(v)] at ``q``, a float or an array.

    The one rule behind every map value; ``q`` lies inside [-qstar, qstar].
    A smooth map without a closed form takes the backend's 1-D rule
    ``_edge`` at |c| = 1, c = q/qstar, and the Tanh table or tensor
    Gauss-Hermite elsewhere.  Every rule computes the values of an array
    ``q`` in ``out`` when given (a float array of its shape), with the same
    bits.
    """
    if activation in _CLOSED and (
        backend == "closed" or (activation is Activation.RELU and order == 2)
    ):
        return _CLOSED[activation][order](qstar, q, out)
    if activation is Activation.RELU:
        return (_quad_relu_t, _quad_relu_tdot)[order](qstar, q, nodes, out)
    phi, odd = _PHI[activation][order], order != 1
    c = q / qstar
    scalar = isinstance(c, float)
    if scalar and abs(c) == 1.0:  # no numpy call, and no table, on the diagonal
        return _edge(phi, qstar, backend, nodes) * (c if odd else 1.0)
    if backend == "closed":
        values = _clenshaw(_tanh_table(qstar, order), c, odd, out)
    else:
        values = _quad_smooth(phi, qstar, q, nodes, out)
    if not scalar:
        on = np.abs(c) == 1.0
        if on.any():
            values[on] = _edge(phi, qstar, backend, nodes) * (c[on] if odd else 1.0)
    return values


def diag_second_moment(activation: Activation, q: float, nodes: int = 128, backend: str = "closed"):
    """E[phi(u)^2] for u ~ N(0, q): the diagonal (equal-argument) map.

    This is the map whose fixed point sets the normalized variance; unlike
    the off-diagonal maps it takes the common variance itself as argument.
    It is ``ActivationKernel(activation, q, backend, nodes).t_map(q)`` bit
    for bit, so on "quadrature" it is independent of the closed forms.
    ``q`` is a scalar; q = 0 gives 0.
    """
    _check_rule(backend, nodes)
    q = float(q)
    if not q >= 0:  # also rejects NaN, which would build a NaN Tanh table
        raise CovarianceDomainError("variance must be nonnegative")
    return float(_map(Activation(activation), backend, nodes, q, 0, q)) if q else 0.0


@dataclass(frozen=True)
class ActivationKernel:
    """The maps t_map / t_dot / t_ddot at a fixed diagonal variance.

    t_ddot is E[phi''(u) phi''(v)].  backend "closed" uses the arcsine /
    arc-cosine closed forms for Erf and ReLU, and for Tanh one cached
    Chebyshev table per (qstar, order) built from a trapezoid rule (the 1-D
    rule at |q_ab| = qstar).  backend "quadrature" forces the
    Gaussian-quadrature route with ``nodes`` points per rule (2 to 370),
    which is the independent oracle the closed forms and tables are checked
    against (1-D Gauss-Hermite at |q_ab| = qstar); ReLU's t_ddot (phi'' a
    delta) stays the closed form there.  ``nodes`` applies to the quadrature
    backend only.  Scalars and arrays take the same rule, entry by entry.
    Instances are immutable and safe to share across threads.
    """

    activation: Activation
    qstar: float
    backend: str = "closed"
    nodes: int = 128

    def __post_init__(self):
        if not 0.0 < self.qstar < math.inf:  # also rejects NaN
            raise ValueError(f"qstar must be positive and finite, not {self.qstar!r}")
        _check_rule(self.backend, self.nodes)
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

    def _evaluate(self, order: int, q_ab, out=None):
        """The order-th map E[phi^(order)(u) phi^(order)(v)] at ``q_ab``.

        ReLU's phi'' is a delta, so its order-2 map is the closed form on
        either backend and needs |q_ab| strictly inside (-qstar, qstar).
        An array's values go to ``out`` when given: a float array of its
        shape, which saves the map's own result array.
        """
        scalar = np.isscalar(q_ab) or np.ndim(q_ab) == 0
        if out is not None and (scalar or out.shape != np.shape(q_ab) or out.dtype != float):
            raise ValueError(f"out must be a float array of the shape {np.shape(q_ab)} of q_ab")
        q = self._check_domain(q_ab, strict=self.activation is Activation.RELU and order == 2)
        values = _map(self.activation, self.backend, self.nodes, self.qstar, order,
                      float(q) if scalar else q, out)
        return float(values) if scalar else np.asarray(values)

    # -- the three maps ----------------------------------------------------

    def t_map(self, q_ab, out=None):
        """E[phi(u) phi(v)]; accepts scalars or arrays of off-diagonals (an array's to ``out``)."""
        return self._evaluate(0, q_ab, out)

    def t_dot(self, q_ab, out=None):
        """E[phi'(u) phi'(v)], the derivative of t_map in q_ab (an array's to ``out``)."""
        return self._evaluate(1, q_ab, out)

    def t_ddot(self, q_ab):
        """E[phi''(u) phi''(v)], the second derivative of t_map in q_ab."""
        return self._evaluate(2, q_ab)

