"""Third-order tensor algebra built on a mode-3 discrete Fourier transform.

A tensor here is a real float64 array of shape (n1, n2, n3); the n3 axis
indexes "frontal slices".  Shrinkage and the tensor nuclear norm work
slice-wise in the Fourier domain: transform along axis 2 with the
unnormalized forward DFT, operate on each Fourier slice with ordinary
matrix algebra, transform back with the 1/n3-scaled inverse.

Real input makes the Fourier slices conjugate-symmetric: slice i pairs with
slice n3 - i, and a conjugated slice has the same singular values.  So only
the n3 // 2 + 1 distinct slices that ``np.fft.rfft`` returns are decomposed,
and ``np.fft.irfft`` rebuilds the real tensor from them.

Shrinking a slice A needs only its right singular vectors V and singular
values s: A V diag(max(s - tau, 0) / s) V^H is A with every singular value
soft-thresholded.  :func:`truncated_tsvd` reads V and s^2 off the Hermitian
eigendecomposition of A's Gram matrix, which costs less than an SVD and
never forms the left singular vectors.  The slices are independent, so it
shrinks them one by one on up to ``threads`` threads, and the transforms
there and back run on the same threads in blocks of rows; NumPy releases
the GIL in the FFT, eigensolver and matmul loops, and each slice's and
row's result is the same whichever thread computes it.  The Fourier
slices live in one complex buffer, each shrunk slice replaces its own
there, and the inverse transform writes the real result into ``out``: a
new array, or any float64 array of the input's shape, the input itself
included, since the forward transform has read all of the input before
the first slice is shrunk.  A result that fails the finiteness check is
already in ``out`` when :class:`NonFinite` is raised.
:func:`fourier_singular_values` keeps the SVD: it serves spectra whose
small singular values a Gram matrix cannot resolve.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import NoConvergence, NonFinite, ParseError, ShapeMismatch, naming_file, write_file
from .parallel import row_blocks, thread_map


def as_tensor3(t) -> np.ndarray:
    """Validate and return ``t`` as a float64 array of shape (n1, n2, n3)."""
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected a 3-way tensor, got ndim={arr.ndim}")
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


# Slice work, in n1 * n2 * min(n1, n2) units summed over the slices, that
# each thread of a pool must get.  Below about this much, starting a
# thread and handing it slices costs more than the thread saves.  On a
# 2-CPU host with one BLAS thread, 2 threads were slower than 1 on every
# stack of up to 665,600 units (each of the benchmark's desk and cli
# stacks, and stress's (256, 10, 50) one) and faster on every stack of
# 1.5 million units and more.
MIN_WORK_PER_THREAD = 1 << 19

# Share of a matrix's largest singular value above which its Gram matrix
# resolves a singular value to about 128 * eps relative to the largest.
# Below it, a block whose threshold is also below it is shrunk again
# through its own Gram matrix.
RESOLVED = 2.0 ** -7


def _tnn_of(sv: np.ndarray, n3: int) -> float:
    """Tensor nuclear norm from the singular values ``sv`` (one row per
    distinct slice) of :func:`fourier_singular_values`: the mean of all n3
    slices' nuclear norms.  Each slice i in 1 .. (n3 - 1) // 2 stands for
    itself and its conjugate partner n3 - i, so it counts twice; slice 0
    and, for even n3, slice n3 / 2 are their own partners and count once."""
    norms = sv.sum(axis=1)
    return float(norms.sum() + norms[1:(n3 + 1) // 2].sum()) / n3


def _shrink_tall(a: np.ndarray, tau: float, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Soft-threshold the singular values of a C-contiguous complex matrix
    with at least as many rows as columns by ``tau``, through the
    eigendecomposition of its Gram matrix.

    Returns a @ v @ diag(max(s - tau, 0) / s) @ v^H (written to ``out`` when
    given) and the shrunk singular values max(s - tau, 0), descending.  The
    singular values below :data:`RESOLVED` times the largest are shrunk by
    the same rule on the block a @ v that holds them, when ``tau`` is below
    that share too.
    """
    parts = a.view(np.float64)
    top = max(parts.max(initial=0.0), -parts.min(initial=0.0))
    # A power of two scales exactly, and brings the largest entry into
    # [0.5, 1), so the Gram matrix cannot overflow whatever the slice's
    # magnitude.
    scale = np.ldexp(1.0, min(-int(np.frexp(top)[1]), 1023))
    b = a * scale
    w, v = np.linalg.eigh(b.conj().T @ b)
    del b  # a thread holds as few of its slice's factors as it can
    s = np.sqrt(np.maximum(w, 0.0))
    t = tau * scale
    cut = RESOLVED * s.max(initial=0.0)
    m = int(np.searchsorted(s, cut)) if t < cut else 0
    kept = np.maximum(s[m:] - t, 0.0)
    weight = np.divide(kept, s[m:], out=np.zeros_like(kept), where=kept > 0.0)
    head = v[:, m:]
    out = np.matmul(a @ head * weight, head.conj().T, out=out)
    kept = kept[::-1] / scale  # eigh's order is ascending
    if not m:
        return out, kept
    low, low_kept = _shrink_tall(a @ v[:, :m], tau)
    out += low @ v[:, :m].conj().T
    return out, np.concatenate([kept, low_kept])


def truncated_tsvd(t, tau: float, *, threads: int = 1,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Soft-threshold every Fourier slice's singular values by ``tau``.

    Returns the smoothed tensor and its tensor nuclear norm, which the
    shrunk singular values give without a second transform.  For
    coeff > 0 the tensor is the exact minimizer of
    coeff * ||w - t||_F^2 + tnn(w) at tau = 1 / (2 * coeff).

    Each distinct slice A is shrunk through the eigendecomposition
    A^H A = V diag(s^2) V^H of its Gram matrix on the smaller side (A A^H
    when A is wide): the result is A V diag(max(s - tau, 0) / s) V^H, so
    the left singular vectors are never formed, and the slice is scaled
    by a power of two first, so its Gram matrix cannot overflow.  Squaring
    costs accuracy in the small singular values: a singular value s near
    tau carries an error of about eps * s_max^2 / s.  So when ``tau`` is
    below :data:`RESOLVED` times a slice's largest singular value, the
    singular values below that share are shrunk again through the Gram
    matrix of the block A V that holds them.  The result then agrees with
    a shrinkage through the full SVD to about 1e-13 relative.

    The distinct slices sit in one complex buffer, and each shrunk slice
    replaces its own there.  The smoothed tensor is written to ``out``, a
    float64 array of the input's shape (else :class:`ShapeMismatch`), or
    to a new client-major array when ``out`` is None.  ``out`` may be the
    input itself or overlap it: the forward transform reads all of the
    input before any slice is shrunk, and only the inverse transform, after
    the last slice, writes ``out``.  So on :class:`NoConvergence` ``out``
    is untouched, and on :class:`NonFinite` it already holds the result
    that failed the check.

    The distinct slices are shrunk on up to ``threads`` threads, never
    more than there are slices or multiples of :data:`MIN_WORK_PER_THREAD`
    in their work, and each thread holds one slice's factors at a time.
    When that pool starts, the forward and inverse transforms run on it
    too, each thread transforming a block of rows (the n1 axis).  The
    result does not depend on the thread count.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    arr = as_tensor3(t)
    n1, n2, n3 = arr.shape
    if out is None:
        # Client-major: a stack of uploads keeps each client's entries
        # together, as in a C-ordered (K, P) array.
        out = np.moveaxis(np.empty((n3, n1, n2)), 0, 2)
    elif not (isinstance(out, np.ndarray) and out.shape == arr.shape
              and out.dtype == np.float64):
        raise ShapeMismatch(f"out must be a float64 array of shape {arr.shape}")
    slices = n3 // 2 + 1
    work = slices * n1 * n2 * min(n1, n2)
    workers = min(threads, slices, work // MIN_WORK_PER_THREAD)
    # Slice-major: each Fourier slice is one contiguous matrix.
    mats = np.empty((slices, n1, n2), dtype=np.complex128)
    s = np.empty((slices, min(n1, n2)))

    def forward(rows: slice) -> None:
        np.fft.rfft(arr[rows], axis=2, out=np.moveaxis(mats, 0, 2)[rows])

    def shrink(j: int) -> None:
        try:
            if n1 >= n2:
                # A new matrix takes the result: the re-shrink reads the
                # slice again after the result is written.
                mats[j], s[j] = _shrink_tall(mats[j], tau)
            else:
                # prox(A) = prox(A^H)^H; A^H is a copy, so the result can
                # go straight over A.
                _, s[j] = _shrink_tall(np.ascontiguousarray(mats[j].T).conj(), tau, mats[j].T)
                np.conjugate(mats[j], out=mats[j])
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(
                f"Gram eigendecomposition failed to converge on Fourier slice {j} "
                f"of shape {arr.shape}"
            ) from exc

    def inverse(rows: slice) -> None:
        np.fft.irfft(np.moveaxis(mats, 0, 2)[rows], n=n3, axis=2, out=out[rows])

    # Checked below; the pool's threads run under this error state too.
    with np.errstate(over="ignore", invalid="ignore"), thread_map(workers) as run:
        blocks = row_blocks(n1, workers)
        run(forward, blocks)
        run(shrink, range(slices))
        run(inverse, blocks)
    norm = _tnn_of(s, n3)
    # A singular value past float64 leaves the tensor finite but not its norm.
    if not (np.all(np.isfinite(out)) and np.isfinite(norm)):
        raise NonFinite("smoothed tensor contains NaN or infinity")
    return out, norm


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

