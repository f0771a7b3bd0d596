"""Reference tensor algebra that the tests compare the package against.

Nothing in ``fedceo`` calls these.  They spell the t-product algebra out
the long way (block-circulant matrices, full-length FFTs, one SVD per
Fourier slice) so the package's shortcuts have an independent route to
agree with:

* ``bcirc``, ``unfold``/``fold``, ``t_product``, ``conj_transpose`` and
  ``identity_tensor``: the t-product and its identities.
* ``tsvd``: the full t-SVD, whose reconstruction checks the transform.
* ``dft_mode3`` and ``idft_mode3``: the full-length mode-3 DFT and its
  inverse, which refuses a spectrum without conjugate symmetry.
* ``truncated_tsvd`` and ``tnn``: the full-spectrum, slice-by-slice
  implementations that ``fedceo.tensor`` replaced with one batched
  ``rfft`` pass; the rewrite is checked against them.
* ``truncated_tsvd_batched``: that ``rfft`` pass with all distinct slices
  in one batched SVD, which ``fedceo.tensor`` replaced with one SVD per
  slice on a thread pool; the rewrite must match it bit for bit.
* ``prox_objective``: the objective whose minimizer ``truncated_tsvd`` is.
* ``truncated_svd_matrix``: the matrix nuclear-norm prox, which a tensor
  of identical slices reduces to; ``frobenius``: the norm of any array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedceo.errors import DimMismatch, NoConvergence, NonFinite
from fedceo.tensor import as_tensor3


def frobenius(t) -> float:
    """Frobenius norm of an array of any shape."""
    return float(np.linalg.norm(np.asarray(t).ravel()))


def truncated_svd_matrix(m, tau: float) -> np.ndarray:
    """Soft-threshold the singular values of ``m`` by ``tau``.

    Returns u @ diag(max(sigma - tau, 0)) @ v^H.  This is the proximal map
    of the matrix nuclear norm scaled by tau.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise DimMismatch(f"expected a matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("matrix contains NaN or infinity")
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD failed to converge on shape {arr.shape}") from exc
    return (u * np.maximum(s - tau, 0.0)) @ vh


class SymmetryViolation(ValueError):
    """A spectrum expected to be conjugate-symmetric is not, so the
    inverse transform would not be real."""


def dft_mode3(t) -> np.ndarray:
    """Unnormalized forward DFT along axis 2.

    Returns a complex tensor of the same shape.  Parseval under this
    convention reads ||dft_mode3(t)||_F^2 == n3 * ||t||_F^2.
    """
    return np.fft.fft(as_tensor3(t), axis=2)


# Imaginary residue tolerated (relative to the spectrum's Frobenius norm)
# when an inverse transform is asked to produce a real tensor.
IMAG_TOL = 1e-9


def idft_mode3(spectrum) -> np.ndarray:
    """Inverse of ``dft_mode3``, returning a real tensor.

    The spectrum must be conjugate-symmetric along axis 2 (as every DFT of
    a real tensor is); otherwise the inverse transform has an imaginary
    part and SymmetryViolation is raised rather than silently discarding it.
    """
    arr = np.asarray(spectrum, dtype=np.complex128)
    if arr.ndim != 3:
        raise DimMismatch(f"expected a 3-way spectrum, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("spectrum contains NaN or infinity")
    out = np.fft.ifft(arr, axis=2)
    residue = float(np.max(np.abs(out.imag))) if out.size else 0.0
    if residue > IMAG_TOL * frobenius(arr):
        raise SymmetryViolation(
            f"imaginary residue {residue:.3e} exceeds tolerance; "
            "spectrum is not conjugate-symmetric"
        )
    return np.ascontiguousarray(out.real)


# ---------------------------------------------------------------------------
# Block-circulant view and t-product


def unfold(t) -> np.ndarray:
    """Stack frontal slices vertically into an (n1*n3, n2) matrix."""
    arr = as_tensor3(t)
    n1, n2, n3 = arr.shape
    return np.moveaxis(arr, 2, 0).reshape(n1 * n3, n2)


def fold(mat, shape) -> np.ndarray:
    """Inverse of :func:`unfold` for a target tensor ``shape`` (n1, n2, n3)."""
    n1, n2, n3 = shape
    arr = np.asarray(mat, dtype=np.float64)
    if arr.shape != (n1 * n3, n2):
        raise DimMismatch(f"cannot fold shape {arr.shape} into {tuple(shape)}")
    return np.ascontiguousarray(np.moveaxis(arr.reshape(n3, n1, n2), 0, 2))


def bcirc(t) -> np.ndarray:
    """Block-circulant matrix of ``t``: block (r, c) is slice (r - c) mod n3."""
    arr = as_tensor3(t)
    n1, n2, n3 = arr.shape
    out = np.empty((n1 * n3, n2 * n3), dtype=np.float64)
    for r in range(n3):
        for c in range(n3):
            out[r * n1:(r + 1) * n1, c * n2:(c + 1) * n2] = arr[:, :, (r - c) % n3]
    return out


def t_product(a, b) -> np.ndarray:
    """Tensor-tensor product: slice-wise matrix product in the Fourier domain.

    Equivalent to fold(bcirc(a) @ unfold(b)) but computed in O(n3 log n3)
    transforms plus n3 small matmuls.
    """
    ta, tb = as_tensor3(a), as_tensor3(b)
    if ta.shape[1] != tb.shape[0] or ta.shape[2] != tb.shape[2]:
        raise DimMismatch(f"cannot t-multiply shapes {ta.shape} and {tb.shape}")
    fa = np.moveaxis(np.fft.fft(ta, axis=2), 2, 0)
    fb = np.moveaxis(np.fft.fft(tb, axis=2), 2, 0)
    prod = np.moveaxis(fa @ fb, 0, 2)
    # product of spectra of real tensors is conjugate-symmetric by construction
    return np.ascontiguousarray(np.fft.ifft(prod, axis=2).real)


def conj_transpose(t) -> np.ndarray:
    """Tensor transpose: transpose each slice and reverse slices 2..n3."""
    arr = as_tensor3(t)
    swapped = np.swapaxes(arr, 0, 1)
    return np.ascontiguousarray(
        np.concatenate([swapped[:, :, :1], swapped[:, :, :0:-1]], axis=2)
    )


def identity_tensor(n: int, n3: int) -> np.ndarray:
    """Multiplicative identity for the t-product: eye(n) in slice 1, zeros after."""
    out = np.zeros((n, n, n3))
    out[:, :, 0] = np.eye(n)
    return out


# ---------------------------------------------------------------------------
# Tensor SVD, slice-by-slice shrinkage and the tensor nuclear norm


@dataclass(frozen=True)
class TsvdFactors:
    """t-SVD ``t == u * s * conj_transpose(v)`` (* is the t-product).

    u (n1 x n1 x n3) and v (n2 x n2 x n3) are t-orthogonal; s
    (n1 x n2 x n3) has f-diagonal Fourier slices with nonincreasing
    nonnegative diagonals.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return t_product(t_product(self.u, self.s), conj_transpose(self.v))


def _half_slice_range(n3: int):
    """Indices of Fourier slices that must actually be decomposed; the rest
    follow by conjugation.  Yields (index, mirror_index_or_None, is_real)."""
    for i in range(n3 // 2 + 1):
        mirror = (n3 - i) % n3
        is_real = mirror == i  # slice 0, and the Nyquist slice for even n3
        yield i, (None if is_real else mirror), is_real


def tsvd(t) -> TsvdFactors:
    """Slice-wise full SVD in the Fourier domain, returned as real factor
    tensors.  Self-paired slices are decomposed in real arithmetic and the
    others mirrored by conjugation, so the inverse transforms are real."""
    arr = as_tensor3(t)
    n1, n2, n3 = arr.shape
    spec = np.fft.fft(arr, axis=2)
    fu = np.empty((n1, n1, n3), dtype=np.complex128)
    fs = np.zeros((n1, n2, n3), dtype=np.complex128)
    fv = np.empty((n2, n2, n3), dtype=np.complex128)
    for i, mirror, is_real in _half_slice_range(n3):
        mat = spec[:, :, i].real if is_real else spec[:, :, i]
        u, s, vh = np.linalg.svd(mat, full_matrices=True)
        v = vh.conj().T
        smat = np.zeros((n1, n2))
        np.fill_diagonal(smat, s)
        fu[:, :, i], fs[:, :, i], fv[:, :, i] = u, smat, v
        if mirror is not None:
            fu[:, :, mirror] = np.conj(u)
            fs[:, :, mirror] = smat
            fv[:, :, mirror] = np.conj(v)
    return TsvdFactors(
        u=np.ascontiguousarray(np.fft.ifft(fu, axis=2).real),
        s=np.ascontiguousarray(np.fft.ifft(fs, axis=2).real),
        v=np.ascontiguousarray(np.fft.ifft(fv, axis=2).real),
    )


def truncated_tsvd(t, tau: float) -> np.ndarray:
    """Soft-threshold every Fourier slice's singular values by ``tau``, one
    slice at a time over the full-length spectrum."""
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    arr = as_tensor3(t)
    n3 = arr.shape[2]
    spec = np.fft.fft(arr, axis=2)
    out = np.empty_like(spec)
    for i, mirror, is_real in _half_slice_range(n3):
        mat = spec[:, :, i].real if is_real else spec[:, :, i]
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        shrunk = (u * np.maximum(s - tau, 0.0)) @ vh
        out[:, :, i] = shrunk
        if mirror is not None:
            out[:, :, mirror] = np.conj(shrunk)
    return np.ascontiguousarray(np.fft.ifft(out, axis=2).real)


def truncated_tsvd_batched(t, tau: float) -> tuple[np.ndarray, float]:
    """Soft-threshold the n3 // 2 + 1 distinct ``rfft`` slices in one
    batched SVD; returns the smoothed tensor and its tensor nuclear norm,
    where slices 1 .. (n3 - 1) // 2 count twice for their conjugate
    partners."""
    arr = as_tensor3(t)
    n3 = arr.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):
        mats = np.moveaxis(np.fft.rfft(arr, axis=2), 2, 0)
        u, s, vh = np.linalg.svd(mats, full_matrices=False)
        s = np.maximum(s - tau, 0.0)
        out = np.fft.irfft(np.moveaxis((u * s[:, None, :]) @ vh, 0, 2), n=n3, axis=2)
    norms = s.sum(axis=1)
    return out, float(norms.sum() + norms[1:(n3 + 1) // 2].sum()) / n3


def tnn(t) -> float:
    """Tensor nuclear norm: mean of all n3 Fourier slices' nuclear norms."""
    arr = as_tensor3(t)
    mats = np.moveaxis(np.fft.fft(arr, axis=2), 2, 0)
    return float(np.linalg.svd(mats, compute_uv=False).sum()) / arr.shape[2]


def prox_objective(w, target, coeff: float) -> float:
    """Evaluate coeff * ||w - target||_F^2 + tnn(w)."""
    if coeff <= 0:
        raise ValueError(f"coeff must be positive, got {coeff}")
    aw, at = as_tensor3(w), as_tensor3(target)
    if aw.shape != at.shape:
        raise DimMismatch(f"shape mismatch {aw.shape} vs {at.shape}")
    diff = (aw - at).ravel()
    return coeff * float(diff @ diff) + tnn(aw)
