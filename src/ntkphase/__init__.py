"""Depth evolution of infinite-width NNGP/NTK kernels: exact recursions,
phase analysis, spectra, mean-predictor metrics and sweep tooling.

The submodules load at first use (PEP 562): ``import ntkphase`` binds only
``__version__`` and loads no numpy, and the first lookup of any other name,
``__all__`` included, imports the eight library submodules and re-exports
each one's ``__all__``.  So the CLI can pin numpy's OpenBLAS to one thread
before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("activations", "data", "errors", "phase", "predictor", "propagation", "spectra",
               "sweep")


def __getattr__(name: str):
    if "__all__" not in globals():
        exported = {}
        for sub in _SUBMODULES:
            module = importlib.import_module(f"{__name__}.{sub}")
            exported.update((export, getattr(module, export)) for export in module.__all__)
        globals().update(exported, __all__=list(exported))
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
