"""Exception hierarchy shared across the package.

All errors raised by this package derive from :class:`ErgoLabError`, so callers
can catch one type at an API boundary. Subclasses additionally derive from the
closest builtin (``ValueError``, ``ArithmeticError``, ``RuntimeError``) so that
generic handling keeps working.
"""

from __future__ import annotations


class ErgoLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ErgoLabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConfigError(ErgoLabError, ValueError):
    """A specification object is structurally invalid."""


class ConvergenceError(ErgoLabError, ArithmeticError):
    """An iterative numerical routine failed to reach its tolerance."""


class NonConvergenceError(ConvergenceError):
    """Sinkhorn iterations exhausted ``max_iter``; partial report attached.

    The partially converged state is retained on the ``report`` attribute.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NumericalError(ErgoLabError, ArithmeticError):
    """A numerical linear-algebra step produced an invalid result."""


class IntegrabilityError(ErgoLabError, ValueError):
    """A test function grows too fast for the declared jump-measure moments."""


class BlowUpError(ErgoLabError, ArithmeticError):
    """A simulated path exceeded the overflow guard."""


class SizeError(ErgoLabError, ValueError):
    """A problem instance exceeds the configured size guard."""


class InsufficientPathsError(ErgoLabError, ValueError):
    """Too few sample paths to produce a statistically meaningful estimate."""


class NotDissipativeError(ErgoLabError, ValueError):
    """The requested contraction certificate does not exist for these inputs."""


class InsufficientTailError(ErgoLabError, ValueError):
    """No grid point satisfies the tail inequality; diagnostics attached."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class DegenerateDataError(ErgoLabError, ValueError):
    """The data span is too small to identify the requested rate model."""
