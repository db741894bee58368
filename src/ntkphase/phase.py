"""Fixed points, stability slopes, phase classification and depth-scale /
spectrum predictions for the kernel recursions.

The recursion q -> sigma_w2 * T(q) + sigma_b2 has a stable diagonal fixed
point qstar and the off-diagonal correlation map a fixed point cstar, both
solved directly: ReLU's qstar in closed form, the others by one bisection;
a point without a finite positive qstar raises at once.  The linearized
slopes at those points (chi1 at c=1, chi_c at cstar) classify the
hyperparameters into the ordered (chi1 < 1), chaotic (chi1 > 1) and critical
(chi1 = 1) regimes and set every large-depth law exported from here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .activations import _PHI, Activation, ActivationKernel, diag_second_moment
from .errors import (
    CovarianceDomainError,
    DegenerateFixedPointError,
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
# Largest sigma_w2 or sigma_b2 accepted.  The Tanh tables grow with qstar: one
# tanh point with kappa at depths 1 and 2 takes 0.11 s at sigma_b2 = 10, 2.4 s
# at 100 and 81 s at 1000; at 1e16 a table asks for 47 GiB.  Erf's transition
# line divides by a slope that underflows to 0 at sigma_b2 = 1e16.
MAX_VARIANCE = 100.0


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
        if not (0 <= self.sigma_w2 <= MAX_VARIANCE and 0 <= self.sigma_b2 <= MAX_VARIANCE):
            raise ValueError(f"variances must lie in [0, {MAX_VARIANCE:g}]")  # also rejects NaN
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


def _bisect(left, lo: float, hi: float) -> float:
    """``hi`` once the midpoint of [lo, hi] equals an end; ``left(x)`` is True below the root."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if left(mid) else (lo, mid)
        mid = 0.5 * (lo + hi)
    return hi


def _zero_bias_edge(activation: Activation) -> float:
    """sigma_w2 above which q = 0 repels the sigma_b2 = 0 diagonal map: 1/phi'(0)^2, ReLU 2."""
    return 2.0 if activation is Activation.RELU else 1.0 / float(_PHI[activation][1](0.0)) ** 2


def solve_qstar(h: Hyperparams, backend: str = "closed", nodes: int = 128) -> float:
    """Stable fixed point of the diagonal variance map of ``h.activation``, solved directly.

    ReLU: sigma_b2 / (1 - sigma_w2/2), or 1.0 where the map is the identity
    (sigma_w2 = 2, sigma_b2 = 0).  Erf/Tanh: E[phi^2] < 1, so one bisection on
    (0, sigma_w2 + sigma_b2] of ``diag_second_moment`` on ``backend`` with
    ``nodes`` (quadrature only).  Raises, before any map evaluation,
    ``NonConvergenceError`` where ReLU has no finite fixed point and
    ``DegenerateFixedPointError`` where q* = 0 (sigma_b2 = 0 and
    sigma_w2 phi'(0)^2 <= 1).
    """
    act, sw2, sb2 = h.activation, h.sigma_w2, h.sigma_b2
    if act is Activation.RELU and sw2 >= 2.0:
        if sw2 == 2.0 and sb2 == 0.0:
            return 1.0
        raise NonConvergenceError(f"no finite variance fixed point at ({sw2}, {sb2})")
    if sb2 == 0.0 and sw2 <= _zero_bias_edge(act):
        raise DegenerateFixedPointError(f"variance fixed point is q* = 0 at ({sw2}, 0)")
    if act is Activation.RELU:
        return sb2 / (1.0 - sw2 / 2.0)
    return _bisect(
        lambda q: sw2 * diag_second_moment(act, q, nodes, backend) + sb2 > q, 0.0, sw2 + sb2
    )


def solve_cstar(h: Hyperparams, k: ActivationKernel) -> float:
    """Stable fixed point of the off-diagonal correlation map.

    c = 1 is always a fixed point, stable iff chi1 <= 1.  Past that the map is
    convex on [0, 1] with slope chi1 > 1 at 1, so one bisection finds its one
    crossing in (0, 1); an odd activation at sigma_b2 = 0 fixes exactly c = 0.
    """
    qstar = k.qstar
    chi1 = h.sigma_w2 * k.t_dot(qstar)
    if chi1 <= 1.0 + PHASE_TOL:
        return 1.0
    if h.sigma_b2 == 0.0 and k.activation is not Activation.RELU:
        return 0.0
    return _bisect(lambda c: (h.sigma_w2 * k.t_map(c * qstar) + h.sigma_b2) / qstar > c, 0.0, 1.0)


def slopes(h: Hyperparams, k: ActivationKernel, cstar: float):
    """(chi1, chi_c, chi1_2, chi_c_2): first/second-order recursion slopes.

    Second-order slopes are +inf where t_ddot diverges at the evaluation
    point: ReLU's correlation map has a kink at c = 1, so its chi1_2 is
    always +inf.  ``predict_spectrum`` and ``predict_scalar_corrections``
    read that as the kinked (ReLU) critical and ordered laws.
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


def depth_scales(chi1: float, chi_c: float):
    """(xi1, xi_c, xi_star): e-folding depths of the three decay rates.

    Each scale is -1/log(rate) when the rate lies in (0, 1), +inf when the
    rate is 1 (marginal), and None when the rate exceeds 1 (no decay).
    """
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
    qstar = solve_qstar(h, backend, nodes)
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


def critical_sigma_w2(sigma_b2: float, k: ActivationKernel) -> float:
    """Weight variance on the order-to-chaos line chi1 = 1 at ``sigma_b2``.

    The line is parameterized by its variance fixed point q: with
    V(q) = E[phi(u)^2] and D(q) = E[phi'(u)^2], u ~ N(0, q), it is
    sigma_w2 = 1/D(q), sigma_b2 = q - V(q)/D(q).  One bisection in q solves
    the second equation; the bracket starts at [0, max(1, 2 sigma_b2)] and
    its upper end doubles until it holds the root, which ends because
    q - V/D grows without bound for Erf and Tanh.  At sigma_b2 = 0 the root
    is the q -> 0 limit 1/phi'(0)^2 (pi/4 for Erf, 1 for Tanh).  ReLU has
    D = 1/2 at every q, so its line is sigma_w2 = 2 at every sigma_b2 (the
    q -> inf limit).  ``k`` supplies activation, backend and nodes only;
    ``sigma_b2`` above ``MAX_VARIANCE`` raises ``ValueError``.
    """
    if not 0.0 <= sigma_b2 <= MAX_VARIANCE:  # also rejects NaN
        raise ValueError(f"sigma_b2 must lie in [0, {MAX_VARIANCE:g}]")
    if k.activation is Activation.RELU or sigma_b2 == 0.0:
        return _zero_bias_edge(k.activation)

    def line(q: float):  # (sigma_b2, sigma_w2) at fixed point q on the line
        d = ActivationKernel(k.activation, q, k.backend, k.nodes).t_dot(q)
        return q - float(diag_second_moment(k.activation, q, k.nodes, k.backend)) / d, 1.0 / d

    lo, hi = 0.0, max(1.0, 2.0 * sigma_b2)
    while line(hi)[0] <= sigma_b2:
        lo, hi = hi, 2.0 * hi
    return line(_bisect(lambda q: line(q)[0] <= sigma_b2, lo, hi))[1]


def _pool_factor(h: Hyperparams) -> int:
    return h.spatial_size if h.architecture is Architecture.CNN_P else 1


def _pow(base: float, exponent: float) -> float:
    """base ** exponent saturating to inf/0 instead of raising at the float range."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _p_diag(qstar: float, chi1: float, l: int) -> float:
    """Closed form of the NTK diagonal recursion p' = qstar + chi1 * p, p(0)=0, off chi1 = 1."""
    return qstar * (1.0 - _pow(chi1, l)) / (1.0 - chi1)


def predict_spectrum(
    ph: PhaseReport, h: Hyperparams, m: int, l: int, kind: str
) -> AsymptoticPrediction:
    """Leading-order spectrum values for a size-m dataset at layer l.

    Where the underlying law fixes only a rate, the value carries a unit
    prefactor (e.g. the ordered NTK bulk l*chi1^l, chi1^(l/2) at a kink);
    constants like the critical condition number (m*d+2)/2 are exact limits.
    """
    if m < 2:
        raise ValueError("need m >= 2 training points")
    if kind not in ("ntk", "nngp"):
        raise ValueError("kind must be 'ntk' or 'nngp'")
    d = _pool_factor(h)
    q, c = ph.qstar, ph.cstar
    chi1, chi_c = ph.chi1, ph.chi_c
    kinked = math.isinf(ph.chi1_2)  # ReLU: the correlation map has a kink at c = 1

    if ph.phase is Phase.CRITICAL and kinked:
        # The kink's fractional expansion changes the critical constants: the
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
            # kinked, the NTK deviation follows sqrt(-eps) ~ chi1^(l/2) (see
            # predict_scalar_corrections), not l*chi1^l
            rate = _pow(chi1, l / 2) if kinked else l * _pow(chi1, l)
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
):
    """Leading-order deviations from the fixed point at layer l.

    Returns (eps_ab, delta_ab, p_diag): the off-diagonal NNGP deviation, the
    off-diagonal NTK deviation (from its fixed point off the critical line,
    from the l*qstar diagonal on it) and the NTK diagonal.  For the geometric
    phases eps0/delta0 are the asymptotic constants, not the layer-0
    deviations: eps0 is zeta = lim chi^{-l} eps_l (fit_zeta estimates it)
    and delta0 the constant term of chi^{-l} delta_l = delta0 + l*A.  For a
    nonlinear map they differ from the layer-0 values.  The data-independent
    critical laws ignore them.  An infinite chi1_2 (the correlation map's
    curvature diverges at c = 1, as at ReLU's kink) selects the kinked laws:
    on the critical line quadratic off-diagonal convergence; in the ordered
    phase, since T_dot(1) - T_dot(c) ~ sqrt(2(1 - c))/(2 pi), an NTK deviation
    F sqrt(|eps|), F = -chi1 pstar sqrt(2/qstar) / (pi (sqrt(chi1) - chi1)),
    which does not read delta0.
    """
    q = ph.qstar
    if ph.phase is Phase.CRITICAL:
        if math.isinf(ph.chi1_2):
            return -q * (4.5 * math.pi**2) / l**2, -(3.0 / 4.0) * l * q, l * q
        return -2.0 / (ph.chi1_2 * l), -(2.0 / 3.0) * l * q, l * q
    if ph.phase is Phase.CHAOTIC:
        chi, chi2, pab = ph.chi_c, ph.chi_c_2, ph.pabstar
    else:
        chi, chi2, pab = ph.chi1, ph.chi1_2, ph.pabstar
    if chi == 0.0:
        return 0.0, 0.0, _p_diag(q, ph.chi1, l)
    eps = eps0 * chi**l
    if ph.phase is Phase.ORDERED and math.isinf(chi2):
        F = -chi * ph.pstar * math.sqrt(2.0 / q) / (math.pi * (math.sqrt(chi) - chi))
        return eps, F * math.sqrt(abs(eps)), _p_diag(q, ph.chi1, l)
    polynomial = 1.0 if pab is None else 1.0 + chi2 * pab / chi
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
