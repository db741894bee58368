"""Depth evolution of infinite-width NNGP/NTK kernels: exact recursions,
phase analysis, spectra, mean-predictor metrics and sweep tooling."""

from .activations import *
from .data import *
from .errors import *
from .phase import *
from .predictor import *
from .propagation import *
from .spectra import *
from .sweep import *

__version__ = "0.1.0"
