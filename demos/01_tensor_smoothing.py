# coding: utf-8
"""
==========================================
Low-rank smoothing of a stacked tensor
==========================================

A walk through the tensor toolbox: stack a few noisy copies of a shared
matrix into a third-order tensor, look at its per-frequency spectrum,
and watch soft-thresholding strip the noise while keeping the shared
structure.
"""

# %%
# A stack of noisy copies
# -----------------------
#
# Five "clients" hold the same 12 x 6 matrix plus independent noise.
# Stacking them along the third axis gives a 12 x 6 x 5 tensor whose
# frontal slices agree up to the noise.

import numpy as np

from fedceo.analysis import spectral_curves
from fedceo.tensor import tnn, truncated_tsvd

rng = np.random.default_rng(0)
shared = rng.normal(size=(12, 6))
clients = 5
stack = np.dstack([shared + 0.3 * rng.normal(size=shared.shape)
                   for _ in range(clients)])
print(f"stack shape: {stack.shape}, energy {np.linalg.norm(stack):.3f}")

# %%
# Where the signal lives
# ----------------------
#
# The mode-3 Fourier transform separates "what the clients share" from
# "where they disagree".  Frequency 0 is the plain sum of the slices, so
# the shared matrix concentrates there; every other frequency carries
# only noise.

curves = spectral_curves(stack)
print("top singular value per frequency:")
for s, value in enumerate(curves[:, 0]):
    kind = "shared structure" if s == 0 else "disagreement"
    print(f"  frequency {s}: {value:8.3f}   <- {kind}")

# %%
# Soft-thresholding the spectrum
# ------------------------------
#
# ``truncated_tsvd`` shrinks every Fourier-slice singular value by a
# common threshold.  Values below the threshold vanish, so the noise
# frequencies collapse while the dominant frequency survives (slightly
# shrunk).  The tensor nuclear norm drops accordingly; ``truncated_tsvd``
# returns it with the smoothed stack, read off the shrunk singular values.

tau = 0.6 * clients * np.linalg.svd(shared, compute_uv=False)[-1]
smoothed, tnn_after = truncated_tsvd(stack, tau)
print(f"threshold tau = {tau:.3f}")
print(f"tnn before {tnn(stack):.3f} -> after {tnn_after:.3f}")
after = spectral_curves(smoothed)
print("top singular value per frequency after smoothing:")
for s, value in enumerate(after[:, 0]):
    print(f"  frequency {s}: {value:8.3f}")

# %%
# How well did we denoise?
# ------------------------
#
# Compare each slice against the shared matrix before and after.  The
# smoothed slices sit much closer to the truth than the raw ones.

raw_err = np.mean([np.linalg.norm(stack[:, :, k] - shared) for k in range(clients)])
new_err = np.mean([np.linalg.norm(smoothed[:, :, k] - shared) for k in range(clients)])
print(f"mean slice error: raw {raw_err:.3f} -> smoothed {new_err:.3f}")

# %%
# The identical-slice shortcut
# ----------------------------
#
# If every slice is exactly the same matrix W, tensor smoothing at tau
# equals plain matrix soft-thresholding of W at tau / K, slice by slice.
# This makes the tensor threshold easy to calibrate.  A one-slice tensor
# has a one-slice spectrum, so ``truncated_tsvd`` on it is the matrix rule.

same = np.dstack([shared] * clients)
via_tensor = truncated_tsvd(same, tau)[0][:, :, 0]
via_matrix = truncated_tsvd(shared[:, :, None], tau / clients)[0][:, :, 0]
print("identical-slice deviation from the matrix rule: "
      f"{np.max(np.abs(via_tensor - via_matrix)):.2e}")
