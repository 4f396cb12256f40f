"""Spectral analysis of the regularized Smilansky model.

Submodules: model (configuration and potentials), oned (1D comparison
operator), grid2d (truncated 2D Hamiltonian and transition scans), weyl
(quasi-mode certificates), bracketing (lower bounds and classification),
sturm (Sturm counts, their bisection, and the lowest eigenvector by inverse
iteration, on lists), eigs (the 2D eigensolver), quadrature (Gauss-Legendre
panels, Hermite interpolants), cli.  A submodule is imported on first
access, so `import smilansky_lab` loads none of them, and the 1D and Weyl
paths (model, oned, bracketing, sturm, quadrature, weyl, cli) never load
numpy, for any profile family.  The records are namedtuples, and the
debug records reach `logging` only in a process that has imported it, so
no command loads `logging`, nor a module to build its record classes.
"""

import importlib

from .errors import (ComputationError, ConfigurationError, ConvergenceError,
                     RefinementError, SmilanskyError)

__version__ = "0.1.0"

_SUBMODULES = ("bracketing", "cli", "eigs", "grid2d", "model", "oned", "quadrature",
               "sturm", "weyl")

__all__ = [
    *_SUBMODULES,
    "SmilanskyError", "ConfigurationError", "ComputationError",
    "ConvergenceError", "RefinementError", "__version__",
]


def __getattr__(name: str):
    """`smilansky_lab.grid2d` and the other submodules, imported on first
    access (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
