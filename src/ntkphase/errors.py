"""Exception types shared across the package."""

__all__ = [
    "NtkPhaseError",
    "CovarianceDomainError",
    "NonConvergenceError",
    "DegenerateFixedPointError",
    "DiagonalDriftError",
    "ZeroRowError",
    "WindowError",
    "SingularKernelError",
    "IllConditionedError",
]


class NtkPhaseError(Exception):
    """Base class for all package-specific errors."""


class CovarianceDomainError(NtkPhaseError, ValueError):
    """Off-diagonal covariance outside the admissible range for the map."""


class NonConvergenceError(NtkPhaseError, RuntimeError):
    """No finite fixed point to converge to."""


class DegenerateFixedPointError(NtkPhaseError, ValueError):
    """The variance fixed point is q* = 0, where the normalized kernels are undefined."""


class DiagonalDriftError(NtkPhaseError, RuntimeError):
    """Kernel diagonal drifted away from the variance fixed point."""


class ZeroRowError(NtkPhaseError, ValueError):
    """Input row has zero or non-finite norm and cannot be normalized."""


class WindowError(NtkPhaseError, ValueError):
    """Convolution window exceeds the spatial extent."""


class SingularKernelError(NtkPhaseError, RuntimeError):
    """Train-train kernel is numerically singular; carries the minimum eigenvalue."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(f"{message} (min eigenvalue: {min_eigenvalue:.3e})")
        self.min_eigenvalue = min_eigenvalue


class IllConditionedError(NtkPhaseError, RuntimeError):
    """Data-dependent block is too ill-conditioned for the requested identity."""
