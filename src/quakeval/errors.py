"""Exception types shared across the package."""

from __future__ import annotations


class QuakevalError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QuakevalError, ValueError):
    """Raised when inputs violate a documented contract (bad CSV row,
    out-of-range parameter, prediction window outside the record, ...).

    The CLI maps this class to exit code 2.
    """


class FitError(QuakevalError):
    """Raised when a density fit does not converge.

    The best iterate found so far is attached as ``best`` so callers can
    inspect or reuse it.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best
