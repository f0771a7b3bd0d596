"""Exception types shared across the package.

Every error raised on a contract violation derives from :class:`FedceoError`
so callers can catch the package's failures in one clause.  Config-file
problems (:class:`ParseError`, :class:`ValidationError`) are kept distinct
from numeric failures (:class:`NoConvergence`, :class:`NonFinite`) because
the command line maps the two groups to different exit codes.
"""

from contextlib import contextmanager


class FedceoError(Exception):
    """Base class for all package errors."""


class DimMismatch(FedceoError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFinite(FedceoError, ValueError):
    """An input or result contains NaN or infinity."""


class NoConvergence(FedceoError, ArithmeticError):
    """An iterative factorization failed to converge."""


class EmptyDataset(FedceoError, ValueError):
    """A dataset with zero samples was supplied where samples are required."""


class TooManyClients(FedceoError, ValueError):
    """More client partitions were requested than there are samples."""


class StaleCache(FedceoError, RuntimeError):
    """A backward pass was invoked with a cache built by a different
    forward pass or model."""


class ArchMismatch(FedceoError, ValueError):
    """Layer stacks do not match the model architecture they belong to."""


class ShapeMismatch(FedceoError, ValueError):
    """A parameter vector or tensor does not match the model's shape."""


class DegenerateGradient(FedceoError, ValueError):
    """A gradient is too small to invert for input reconstruction."""


class NotSmoothingRound(FedceoError, ValueError):
    """The smoothing schedule was evaluated at a round it does not fire on."""


class ParseError(FedceoError, ValueError):
    """A config or data file is syntactically malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@contextmanager
def naming_file(path):
    """Prefix ``path`` to the message of a :class:`ParseError` raised in the
    block; the error keeps its ``line``."""
    try:
        yield
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


class ValidationError(FedceoError, ValueError):
    """A config value is syntactically fine but semantically invalid."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class InvalidDelta(ValidationError):
    """A privacy parameter delta lies outside (0, 1)."""
