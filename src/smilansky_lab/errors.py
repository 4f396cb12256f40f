"""Exception hierarchy and the debug records, shared by all modules."""

import sys


class SmilanskyError(Exception):
    """Base class for package errors."""


class ConfigurationError(SmilanskyError):
    """Invalid model description, grid, or request parameters."""


class ComputationError(SmilanskyError):
    """A numerical routine failed to deliver its contract."""


class ConvergenceError(ComputationError):
    """Iterative solver or quadrature did not converge."""


class RefinementError(ComputationError):
    """Grid refinement or extrapolation check failed; diagnostics in the message."""


def _debug(name: str, msg: str, *args) -> None:
    """A DEBUG record on the logger `name`, at its caller's line, if the
    process has imported `logging`: one that has not has no handler that
    could show it, so the package never imports `logging` itself."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).debug(msg, *args, stacklevel=2)
