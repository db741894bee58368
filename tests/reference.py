"""High-precision references for the precision claims of the tests.

Each reference starts from the same float64 entries the library reads and
runs in ``mpmath`` at p digits and again at 2p digits.  It returns a value
only where the two runs agree, so it certifies its own accuracy; elsewhere
it raises ``PrecisionTooLow``.
"""

import mpmath
import numpy as np


class PrecisionTooLow(ArithmeticError):
    """The p-digit and 2p-digit runs disagree: p is too small for this input."""


def _mp_predictor(K_dd: np.ndarray, K_td: np.ndarray, digits: int) -> mpmath.matrix:
    with mpmath.workdps(digits):
        A = mpmath.matrix(K_dd.tolist())
        # K_td K_dd^{-1} = (K_dd^{-T} K_td^T)^T, one LU solve per test row
        return mpmath.matrix([list(mpmath.lu_solve(A.T, mpmath.matrix(row.tolist())))
                              for row in K_td])


def mean_predictor(K_dd: np.ndarray, K_td: np.ndarray, digits: int = 60,
                   agree: float = 1e-20) -> np.ndarray:
    """K_td K_dd^{-1} of the given float64 blocks, rounded to float64.

    Solved at ``digits`` and at twice as many; raises ``PrecisionTooLow``
    unless the two agree to ``agree`` relative to their largest entry.
    """
    lo, hi = _mp_predictor(K_dd, K_td, digits), _mp_predictor(K_dd, K_td, 2 * digits)
    with mpmath.workdps(2 * digits):
        gap = max(abs(x - y) for x, y in zip(lo, hi)) / max(abs(y) for y in hi)
    if gap > agree:
        raise PrecisionTooLow(f"{digits} and {2 * digits} digits differ by {float(gap):.1e}")
    return np.array(hi.tolist(), dtype=float)
