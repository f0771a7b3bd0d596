"""Third-order tensor algebra built on a mode-3 discrete Fourier transform.

A tensor here is a real float64 array of shape (n1, n2, n3); the n3 axis
indexes "frontal slices".  Shrinkage and the tensor nuclear norm work
slice-wise in the Fourier domain: transform along axis 2 with the
unnormalized forward DFT, operate on each Fourier slice with ordinary
matrix algebra, transform back with the 1/n3-scaled inverse.

Real input makes the Fourier slices conjugate-symmetric: slice i pairs with
slice n3 - i, and a conjugated slice has the same singular values.  So only
the n3 // 2 + 1 distinct slices that ``np.fft.rfft`` returns are decomposed,
and ``np.fft.irfft`` rebuilds the real tensor from them.  The slices are
independent, so :func:`truncated_tsvd` decomposes them one by one on up to
``threads`` threads; NumPy releases the GIL in the SVD and matmul loops,
and each slice's result is the same whichever thread computes it.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import DimMismatch, NoConvergence, NonFinite, ParseError, naming_file, write_file


def as_tensor3(t) -> np.ndarray:
    """Validate and return ``t`` as a float64 array of shape (n1, n2, n3)."""
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim != 3:
        raise DimMismatch(f"expected a 3-way tensor, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("tensor contains NaN or infinity")
    return arr


# ---------------------------------------------------------------------------
# Tensor shrinkage and the tensor nuclear norm


def fourier_singular_values(arr: np.ndarray) -> np.ndarray:
    """Singular values of the n3 // 2 + 1 distinct Fourier slices of a real
    tensor, one row per slice."""
    mats = np.moveaxis(np.fft.rfft(arr, axis=2), 2, 0)
    try:
        return np.linalg.svd(mats, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(
            f"SVD failed to converge on a Fourier slice of shape {arr.shape}"
        ) from exc


# Slice-SVD work, in n1 * n2 * min(n1, n2) units summed over the slices,
# that each thread of a pool must get.  Below about this much, starting a
# thread and handing it slices costs more than the thread saves.  On a
# 2-CPU host with one BLAS thread, 2 threads were slower than 1 on every
# stack of up to 665,600 units (each of the benchmark's desk and cli
# stacks, and stress's (256, 10, 50) one) and faster on every stack of
# 1.5 million units and more.
MIN_WORK_PER_THREAD = 1 << 19


def _tnn_of(sv: np.ndarray, n3: int) -> float:
    """Tensor nuclear norm from the singular values ``sv`` (one row per
    distinct slice) of :func:`fourier_singular_values`: the mean of all n3
    slices' nuclear norms.  Each slice i in 1 .. (n3 - 1) // 2 stands for
    itself and its conjugate partner n3 - i, so it counts twice; slice 0
    and, for even n3, slice n3 / 2 are their own partners and count once."""
    norms = sv.sum(axis=1)
    return float(norms.sum() + norms[1:(n3 + 1) // 2].sum()) / n3


def truncated_tsvd(t, tau: float, *, threads: int = 1) -> tuple[np.ndarray, float]:
    """Soft-threshold every Fourier slice's singular values by ``tau``.

    Returns the smoothed tensor and its tensor nuclear norm, which the
    shrunk singular values give without a second transform.  For
    coeff > 0 the tensor is the exact minimizer of
    coeff * ||w - t||_F^2 + tnn(w) at tau = 1 / (2 * coeff).  The distinct
    slices are shrunk on up to ``threads`` threads, never more than there
    are slices or multiples of :data:`MIN_WORK_PER_THREAD` in their SVD
    work, and each thread holds one slice's factors at a time; the result
    does not depend on the thread count.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    arr = as_tensor3(t)
    n3 = arr.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mats = np.moveaxis(np.fft.rfft(arr, axis=2), 2, 0)
    slices, n1, n2 = mats.shape
    rec = np.empty(mats.shape, dtype=mats.dtype)
    s = np.empty((slices, min(n1, n2)))

    def shrink(j: int) -> None:
        # Entered here, not by the caller: a pool thread does not inherit
        # the caller's error state.
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            try:
                u, sv, vh = np.linalg.svd(mats[j], full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(
                    f"SVD failed to converge on Fourier slice {j} of shape {arr.shape}"
                ) from exc
            s[j] = np.maximum(sv - tau, 0.0)
            np.matmul(u * s[j], vh, out=rec[j])

    work = slices * n1 * n2 * min(n1, n2)
    workers = min(threads, slices, work // MIN_WORK_PER_THREAD)
    if workers > 1:
        # Imported here, so a process that never starts a pool (any run
        # whose stacks are all small) does not pay for the import.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(shrink, range(slices)))
    else:
        list(map(shrink, range(slices)))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = np.fft.irfft(np.moveaxis(rec, 0, 2), n=n3, axis=2)
    if not np.all(np.isfinite(out)):
        raise NonFinite("smoothed tensor contains NaN or infinity")
    return out, _tnn_of(s, n3)


def tnn(t) -> float:
    """Tensor nuclear norm: mean of the n3 Fourier slices' nuclear norms.

    Equals ||bcirc(t)||_* / n3; the convex envelope underlying
    :func:`truncated_tsvd`.
    """
    arr = as_tensor3(t)
    return _tnn_of(fourier_singular_values(arr), arr.shape[2])


# ---------------------------------------------------------------------------
# Serialization: magic "T3R1", three little-endian u32 dims, then
# n1*n2*n3 little-endian f64 values, row-major within each slice,
# slices in order.  Files may hold several tensors back to back.

_MAGIC = b"T3R1"
_HEADER = struct.Struct("<4sIII")


def _read_one(fh):
    header = fh.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ParseError("truncated tensor header")
    magic, n1, n2, n3 = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if 0 in (n1, n2, n3):
        raise ParseError(f"tensor header has an empty axis: {n1}x{n2}x{n3}")
    size = 8 * n1 * n2 * n3
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ParseError(
            f"tensor header claims {n1}x{n2}x{n3} values ({size} bytes) "
            f"but only {left} bytes follow"
        )
    payload = fh.read(size)
    arr = np.frombuffer(payload, dtype="<f8").reshape(n3, n1, n2)
    arr = np.ascontiguousarray(np.moveaxis(arr, 0, 2))
    if not np.all(np.isfinite(arr)):
        raise ParseError("stored tensor contains NaN or infinity")
    return arr


def save_tensors(path, tensors) -> None:
    """Write a sequence of tensors to ``path`` in the T3R1 layout."""
    validated = [as_tensor3(t) for t in tensors]
    write_file(path, (_HEADER.pack(_MAGIC, *t.shape)
                      + np.ascontiguousarray(np.moveaxis(t, 2, 0), dtype="<f8").tobytes()
                      for t in validated))


def load_tensors(path) -> list[np.ndarray]:
    """Read every tensor stored at ``path``; a malformed file raises
    :class:`ParseError` naming it."""
    out = []
    with open(path, "rb") as fh, naming_file(path):
        while (t := _read_one(fh)) is not None:
            out.append(t)
    return out

