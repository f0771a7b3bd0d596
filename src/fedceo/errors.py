"""Exception types shared across the package, and the exit code each maps to.

Every package error derives from :class:`FedceoError`.  The command line
exits 2 on :data:`INPUT_ERRORS` (an :class:`InputError`: a bad config value,
file or dataset, or an ``OSError`` on a path) and 3 on
:data:`NUMERIC_FAILURES` (a :class:`NumericFailure` such as NaN or no
convergence, or an arithmetic error from NumPy or Python).
:class:`NotSmoothingRound` is the one programming error.  Every file the
package writes goes through :func:`write_file`.
"""

import errno
import os
import secrets
from contextlib import contextmanager

import numpy as np


class FedceoError(Exception):
    """Base class for all package errors."""


class InputError(FedceoError):
    """The input is at fault: a config value, a file, or the data in it."""


class NumericFailure(FedceoError):
    """Valid input led to a result that is not a finite number."""


class DimMismatch(InputError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFinite(NumericFailure, ValueError):
    """An input or result contains NaN or infinity."""


class NoConvergence(NumericFailure, ArithmeticError):
    """An iterative factorization failed to converge."""


class EmptyDataset(InputError, ValueError):
    """A dataset with zero samples was supplied where samples are required."""


class TooManyClients(InputError, ValueError):
    """More client partitions were requested than there are samples."""


class ArchMismatch(InputError, ValueError):
    """Layer stacks do not match the model architecture they belong to."""


class ShapeMismatch(InputError, ValueError):
    """A parameter vector or tensor does not match the model's shape."""


class DegenerateGradient(NumericFailure, ValueError):
    """A gradient is too small to invert for input reconstruction."""


class NotSmoothingRound(FedceoError, ValueError):
    """The smoothing schedule was evaluated at a round it does not fire on."""


class ParseError(InputError, ValueError):
    """A config or data file is syntactically malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@contextmanager
def naming_file(path):
    """Prefix ``path`` to the message of a :class:`ParseError` or
    :class:`EmptyDataset` raised in the block, and turn a byte that does
    not decode into a ParseError; a ParseError keeps its ``line``."""
    try:
        try:
            yield
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.object[exc.start]:#04x} is not valid "
                             f"{exc.encoding}") from None
    except (ParseError, EmptyDataset) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def write_file(path, chunks) -> None:
    """Replace the file at ``path`` (through symlinks) by ``chunks``, each
    ``bytes`` or an ASCII ``str``.  They go to a new ``0o666 & ~umask`` file
    beside it that ``os.replace`` moves into place, so a reader sees the old
    file or the whole new one, also after a failed write or a killed process
    (no fsync: not after a power loss).  A non-regular target is refused."""
    target = os.path.realpath(path)
    if os.path.lexists(target) and not os.path.isfile(target):
        raise OSError(errno.EEXIST, "exists and is not a regular file", path)
    tmp = f"{target}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines(c.encode("ascii") if isinstance(c, str) else c for c in chunks)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


class ValidationError(InputError, ValueError):
    """A config value is syntactically fine but semantically invalid."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class InvalidDelta(ValidationError):
    """A privacy parameter delta lies outside (0, 1)."""


INPUT_ERRORS = (InputError, OSError)  # exit 2
NUMERIC_FAILURES = (NumericFailure, np.linalg.LinAlgError, FloatingPointError,
                    OverflowError, ZeroDivisionError)  # exit 3
