"""Fixed points, stability slopes, phase classification and depth-scale /
spectrum predictions for the kernel recursions.

The recursion q -> sigma_w2 * T(q) + sigma_b2 has a stable diagonal fixed
point qstar; the off-diagonal correlation map has fixed point cstar.  The
linearized slopes at those points (chi1 at c=1, chi_c at cstar) classify the
hyperparameters into the ordered (chi1 < 1), chaotic (chi1 > 1) and critical
(chi1 = 1) regimes and set every large-depth law exported from here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .activations import Activation, ActivationKernel, diag_second_moment
from .errors import (
    BracketError,
    CovarianceDomainError,
    NonConvergenceError,
    UndefinedPredictionError,
)

__all__ = [
    "Architecture",
    "Phase",
    "Hyperparams",
    "PhaseReport",
    "AsymptoticPrediction",
    "solve_qstar",
    "solve_cstar",
    "slopes",
    "critical_sigma_w2",
    "depth_scales",
    "analyze",
    "predict_spectrum",
    "predict_scalar_corrections",
    "fit_zeta",
]

PHASE_TOL = 1e-8  # |chi1 - 1| below this counts as critical
_FP_TOL = 1e-12
_FP_MAX_ITER = 10_000


class Architecture(str, enum.Enum):
    FCN = "fcn"
    CNN_F = "cnn_f"
    CNN_P = "cnn_p"


class Phase(str, enum.Enum):
    ORDERED = "ordered"
    CRITICAL = "critical"
    CHAOTIC = "chaotic"


@dataclass(frozen=True)
class Hyperparams:
    """Width-independent configuration of one network family."""

    sigma_w2: float
    sigma_b2: float
    activation: Activation
    architecture: Architecture = Architecture.FCN
    spatial_size: int = 1
    dropout_keep: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "activation", Activation(self.activation))
        object.__setattr__(self, "architecture", Architecture(self.architecture))
        if not (self.sigma_w2 >= 0 and self.sigma_b2 >= 0):  # also rejects NaN
            raise ValueError("variances must be nonnegative")
        if self.sigma_w2 == 0 and self.sigma_b2 == 0:
            raise ValueError("sigma_w2 and sigma_b2 cannot both vanish")
        if self.architecture is Architecture.FCN and self.spatial_size != 1:
            raise ValueError("FCN requires spatial_size == 1")
        if self.spatial_size < 1:
            raise ValueError("spatial_size must be positive")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError("dropout_keep must lie in (0, 1]")


@dataclass(frozen=True)
class PhaseReport:
    """Fixed points, slopes, phase label and depth scales at one point."""

    qstar: float
    cstar: float
    chi1: float
    chi_c: float
    chi1_2: float
    chi_c_2: float
    pstar: Optional[float]
    pabstar: Optional[float]
    phase: Phase
    xi1: Optional[float]
    xi_c: Optional[float]
    xi_star: Optional[float]


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading-order large-depth spectrum values for one kernel kind.

    Entries whose closed form fixes only a growth/decay rate carry a unit
    prefactor; tests compare rates and limiting constants, never those
    unspecified prefactors.
    """

    lambda_max: float
    lambda_bulk: float
    kappa: float

    def __post_init__(self):
        if self.kappa < 1.0:
            raise ValueError("condition number prediction below 1")


def _damped_fixed_point(f, x0: float, what: str) -> float:
    """Iterate x -> f(x), halving the step whenever the local slope exceeds 1."""
    x = float(x0)
    for _ in range(_FP_MAX_ITER):
        fx = f(x)
        delta = fx - x
        if abs(delta) < _FP_TOL:
            return fx
        h = max(1e-7, 1e-7 * abs(x))
        slope = (f(x + h) - f(x - h)) / (2.0 * h) if x - h > 0 else (f(x + h) - fx) / h
        x = x + 0.5 * delta if abs(slope) > 1.0 else fx
    raise NonConvergenceError(f"{what} fixed point did not converge", x)


def solve_qstar(h: Hyperparams, k: Optional[ActivationKernel] = None, q0: float = 1.0) -> float:
    """Stable fixed point of the diagonal variance map.

    Starts from the normalized input variance ``q0``; at a point where the
    map is the identity (critical ReLU) this returns ``q0`` itself, matching
    the convention that inputs keep their normalized variance.  ``k`` only
    supplies activation/backend choices; its own qstar is ignored.
    """
    activation = k.activation if k is not None else h.activation
    nodes = k.nodes if k is not None else 128

    def f(q):
        return h.sigma_w2 * float(diag_second_moment(activation, q, nodes)) + h.sigma_b2

    return _damped_fixed_point(f, q0, "diagonal variance")


def solve_cstar(h: Hyperparams, k: ActivationKernel) -> float:
    """Stable fixed point of the off-diagonal correlation map.

    c = 1 is always a fixed point; it is stable iff chi1 <= 1, in which case
    1 is returned directly (convergence to it is sub-geometric on the
    critical line, so iteration is reserved for the chaotic branch).
    """
    qstar = k.qstar
    chi1 = h.sigma_w2 * k.t_dot(qstar)
    if chi1 <= 1.0 + PHASE_TOL:
        return 1.0

    def f(c):
        return (h.sigma_w2 * k.t_map(c * qstar) + h.sigma_b2) / qstar

    return _damped_fixed_point(f, 0.5, "off-diagonal correlation")


def slopes(h: Hyperparams, k: ActivationKernel, cstar: float):
    """(chi1, chi_c, chi1_2, chi_c_2): first/second-order recursion slopes.

    Second-order slopes are +inf where t_ddot diverges at the evaluation
    point (ReLU at the domain boundary); the critical corrections that
    consume them degenerate to zero there, which is the correct limit.
    """
    qstar = k.qstar
    chi1 = h.sigma_w2 * k.t_dot(qstar)
    chi_c = h.sigma_w2 * k.t_dot(cstar * qstar)

    def second(q):
        try:
            return h.sigma_w2 * k.t_ddot(q)
        except CovarianceDomainError:
            return math.inf

    return chi1, chi_c, second(qstar), second(cstar * qstar)


def depth_scales(chi1, chi_c: Optional[float] = None):
    """(xi1, xi_c, xi_star): e-folding depths of the three decay rates.

    Each scale is -1/log(rate) when the rate lies in (0, 1), +inf when the
    rate is 1 (marginal), and None when the rate exceeds 1 (no decay).
    Accepts either the two slopes or a PhaseReport.
    """
    if isinstance(chi1, PhaseReport):
        chi1, chi_c = chi1.chi1, chi1.chi_c

    def scale(rate):
        if not 0.0 < rate:
            return None
        if abs(rate - 1.0) <= PHASE_TOL:
            return math.inf
        if rate > 1.0:
            return None
        return -1.0 / math.log(rate)

    ratio = chi_c / chi1 if chi1 > 0 else None
    return scale(chi1), scale(chi_c), scale(ratio) if ratio is not None else None


def classify(chi1: float) -> Phase:
    if chi1 < 1.0 - PHASE_TOL:
        return Phase.ORDERED
    if chi1 > 1.0 + PHASE_TOL:
        return Phase.CHAOTIC
    return Phase.CRITICAL


def analyze(h: Hyperparams, backend: str = "closed", nodes: int = 128) -> PhaseReport:
    """Full phase analysis of one hyperparameter point."""
    qstar = solve_qstar(h, ActivationKernel(h.activation, 1.0, backend, nodes))
    k = ActivationKernel(h.activation, qstar, backend, nodes)
    cstar = solve_cstar(h, k)
    chi1, chi_c, chi1_2, chi_c_2 = slopes(h, k, cstar)
    phase = classify(chi1)
    pstar = qstar / (1.0 - chi1) if chi1 < 1.0 - PHASE_TOL else None
    pabstar = cstar * qstar / (1.0 - chi_c) if chi_c < 1.0 - PHASE_TOL else None
    xi1, xi_c, xi_star = depth_scales(chi1, chi_c)
    return PhaseReport(
        qstar=qstar,
        cstar=cstar,
        chi1=chi1,
        chi_c=chi_c,
        chi1_2=chi1_2,
        chi_c_2=chi_c_2,
        pstar=pstar,
        pabstar=pabstar,
        phase=phase,
        xi1=xi1,
        xi_c=xi_c,
        xi_star=xi_star,
    )


def critical_sigma_w2(
    sigma_b2: float,
    k: ActivationKernel,
    bracket=(1e-3, 20.0),
    tol: float = 1e-10,
) -> float:
    """Weight variance on the order-to-chaos line at the given bias variance.

    Root of chi1(sigma_w2) = 1 by bisection; each trial re-solves the
    variance fixed point.  ``k`` supplies activation/backend only.
    """
    if sigma_b2 < 0:
        raise ValueError("sigma_b2 must be nonnegative")

    def chi1_at(sw2: float) -> float:
        h = Hyperparams(sw2, sigma_b2, k.activation)
        try:
            q = solve_qstar(h, k)
        except NonConvergenceError as exc:
            # A truly diverging variance map is past the transition; a
            # bounded-but-slow iterate (ReLU arbitrarily near criticality)
            # still determines the sign of chi1 - 1, so evaluate there.
            if not math.isfinite(exc.last_iterate):
                return math.inf
            q = exc.last_iterate
        kk = ActivationKernel(k.activation, max(q, 1e-12), k.backend, k.nodes)
        return sw2 * kk.t_dot(kk.qstar)

    lo, hi = bracket
    flo, fhi = chi1_at(lo) - 1.0, chi1_at(hi) - 1.0
    if flo * fhi > 0:
        raise BracketError(
            f"chi1 - 1 has no sign change on [{lo}, {hi}] at sigma_b2={sigma_b2}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (chi1_at(mid) - 1.0) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _pool_factor(h: Hyperparams) -> int:
    return h.spatial_size if h.architecture is Architecture.CNN_P else 1


def _pow(base: float, exponent: float) -> float:
    """base ** exponent saturating to inf/0 instead of raising at the float range."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _p_diag(qstar: float, chi1: float, l: int) -> float:
    """Closed form of the NTK diagonal recursion p' = qstar + chi1 * p, p(0)=0."""
    if abs(chi1 - 1.0) <= PHASE_TOL:
        return l * qstar
    return qstar * (1.0 - _pow(chi1, l)) / (1.0 - chi1)


def predict_spectrum(
    ph: PhaseReport, h: Hyperparams, m: int, l: int, kind: str
) -> AsymptoticPrediction:
    """Leading-order spectrum values for a size-m dataset at layer l.

    Where the underlying law fixes only a rate, the value carries a unit
    prefactor (e.g. the ordered bulk l*chi1^l); constants like the critical
    condition number (m*d+2)/2 are exact limits.
    """
    if m < 2:
        raise ValueError("need m >= 2 training points")
    if kind not in ("ntk", "nngp"):
        raise ValueError("kind must be 'ntk' or 'nngp'")
    d = _pool_factor(h)
    q, c = ph.qstar, ph.cstar
    chi1, chi_c = ph.chi1, ph.chi_c

    if ph.phase is Phase.CRITICAL and h.activation is Activation.RELU:
        # ReLU's fractional expansion changes the critical constants: the
        # NTK off-diagonal grows as l*qstar/4 (not /3) and the NNGP bulk
        # collapses quadratically.
        if kind == "ntk":
            return AsymptoticPrediction(
                lambda_max=(m * d + 3.0) * l * q / (4.0 * d),
                lambda_bulk=3.0 * l * q / (4.0 * d),
                kappa=(m * d + 3.0) / 3.0,
            )
        bulk = q * (4.5 * math.pi**2) / l**2
        return AsymptoticPrediction(
            lambda_max=m * q,
            lambda_bulk=bulk / d,
            kappa=max(d * m * q / bulk, 1.0),
        )

    if kind == "ntk":
        if ph.phase is Phase.ORDERED:
            if ph.pstar is None:
                raise UndefinedPredictionError("ordered phase requires a finite pstar")
            rate = l * _pow(chi1, l)
            return AsymptoticPrediction(
                lambda_max=m * ph.pstar,
                lambda_bulk=rate / d,
                kappa=max(d * m * ph.pstar / rate, 1.0) if rate > 0 else math.inf,
            )
        if ph.phase is Phase.CRITICAL:
            return AsymptoticPrediction(
                lambda_max=(m * d + 2.0) * l * q / (3.0 * d),
                lambda_bulk=2.0 * l * q / (3.0 * d),
                kappa=(m * d + 2.0) / 2.0,
            )
        p_l = _p_diag(q, chi1, l)
        return AsymptoticPrediction(
            lambda_max=p_l / d,
            lambda_bulk=p_l / d,
            kappa=1.0,
        )

    if ph.phase is Phase.ORDERED:
        return AsymptoticPrediction(
            lambda_max=m * q,
            lambda_bulk=_pow(chi1, l) / d,
            kappa=max(d * m * q * _pow(chi1, -l), 1.0),
        )
    if ph.phase is Phase.CRITICAL:
        return AsymptoticPrediction(
            lambda_max=m * q,
            lambda_bulk=1.0 / (l * d),
            kappa=max(d * m * float(l), 1.0),
        )
    if c >= 1.0:
        raise UndefinedPredictionError("chaotic NNGP prediction requires cstar < 1")
    return AsymptoticPrediction(
        lambda_max=((1.0 - c) / d + m * c) * q,
        lambda_bulk=(1.0 - c) * q / d,
        kappa=1.0 + d * m * c / (1.0 - c),
    )


def predict_scalar_corrections(
    ph: PhaseReport,
    l: int,
    eps0: float = 1.0,
    delta0: float = 0.0,
    activation: Optional[Activation] = None,
):
    """Leading-order deviations from the fixed point at layer l.

    Returns (eps_ab, delta_ab, p_diag): the off-diagonal NNGP deviation, the
    off-diagonal NTK deviation (from its fixed point off the critical line,
    from the l*qstar diagonal on it) and the NTK diagonal.  eps0/delta0 set
    the layer-0 deviations for the geometric phases; the data-independent
    critical laws ignore them.  Pass the activation to get ReLU's
    fractional critical laws (quadratic off-diagonal convergence) instead
    of the smooth-activation ones.
    """
    q = ph.qstar
    if ph.phase is Phase.CRITICAL:
        if activation is Activation.RELU:
            return -q * (4.5 * math.pi**2) / l**2, -(3.0 / 4.0) * l * q, l * q
        eps = 0.0 if math.isinf(ph.chi1_2) else -2.0 / (ph.chi1_2 * l)
        return eps, -(2.0 / 3.0) * l * q, l * q
    if ph.phase is Phase.CHAOTIC:
        chi, chi2, pab = ph.chi_c, ph.chi_c_2, ph.pabstar
    else:
        chi, chi2, pab = ph.chi1, ph.chi1_2, ph.pabstar
    if chi == 0.0:
        return 0.0, 0.0, _p_diag(q, ph.chi1, l)
    if pab is None or math.isinf(chi2):
        polynomial = 1.0
    else:
        polynomial = 1.0 + chi2 * pab / chi
    eps = eps0 * chi**l
    delta = chi**l * (delta0 + l * polynomial * eps0)
    return eps, delta, _p_diag(q, ph.chi1, l)


def fit_zeta(depths, eps_values, chi: float) -> float:
    """Empirical limit of chi^{-l} * eps over a depth window.

    Least squares of eps against chi^l through the origin; the limit exists
    whenever the deviations decay geometrically at rate chi.
    """
    depths = np.asarray(depths, dtype=float)
    eps_values = np.asarray(eps_values, dtype=float)
    if depths.size < 2:
        raise ValueError("need at least two depths")
    basis = chi**depths
    return float(basis @ eps_values / (basis @ basis))
