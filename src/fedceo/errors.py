"""Exception types shared across the package, and the exit code each maps to.

Every package error is an :class:`InputError` or a :class:`NumericFailure`,
and each class names where the fault is.  An input fault is a file line
(:class:`ParseError`), a config value (:class:`ValidationError`) or an
array passed to the library (:class:`ShapeMismatch`); a numeric fault is
:class:`NonFinite`, :class:`NoConvergence` or :class:`DegenerateGradient`.
The command line exits 2 on :data:`INPUT_ERRORS` (an InputError, an
``OSError`` on a path, or a ``MemoryError`` from a value too large to
allocate) and 3 on :data:`NUMERIC_FAILURES` (a NumericFailure, or an
arithmetic error from NumPy or Python).  Every file the package writes
goes through :func:`write_file`.
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


class ParseError(InputError, ValueError):
    """A config, data or artifact file is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(InputError, ValueError):
    """A config value is syntactically fine but semantically invalid;
    ``message`` says why without naming ``field``."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.message = message
        self.field = field


class ShapeMismatch(InputError, ValueError):
    """An array passed to the library does not have the shape, size or
    label range the call needs."""


class NonFinite(NumericFailure, ValueError):
    """An input or result contains NaN or infinity."""


class NoConvergence(NumericFailure, ArithmeticError):
    """An iterative factorization failed to converge."""


class DegenerateGradient(NumericFailure, ValueError):
    """A gradient is too small to invert for input reconstruction."""


@contextmanager
def naming_file(path):
    """Prefix ``path`` to the message of a :class:`ParseError` raised in
    the block, and turn a byte that does not decode into a ParseError; a
    ParseError keeps its ``line``."""
    try:
        try:
            yield
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.object[exc.start]:#04x} is not valid "
                             f"{exc.encoding}") from None
    except ParseError as exc:
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


INPUT_ERRORS = (InputError, OSError, MemoryError)  # exit 2
NUMERIC_FAILURES = (NumericFailure, np.linalg.LinAlgError, FloatingPointError,
                    OverflowError, ZeroDivisionError)  # exit 3
