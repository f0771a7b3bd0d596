# coding: utf-8
"""
====================================
Reading an input out of one gradient
====================================

For a softmax-linear head, a single sample's gradient factors as an
outer product of the input with the prediction residual — so a server
that sees one raw gradient can reconstruct the input in closed form.
Gradient noise is what breaks the trick, and this script measures how
fast it does.
"""

# %%
# The closed form
# ---------------
#
# With weight gradient G_w = x (p - y)^T and bias gradient g_b = p - y,
# any class j with g_b[j] != 0 gives x = G_w[:, j] / g_b[j] exactly.

import numpy as np

from fedceo.analysis import invert_linear_gradient
from fedceo.models import gradient, logistic_model, unflatten_params

rng = np.random.default_rng(0)
head = logistic_model(16, 8, bias=True, rng=rng)
x_true = rng.normal(size=16)
y = np.array([3])

grad = unflatten_params(head, gradient(head, x_true[None, :], y))
x_hat = invert_linear_gradient(grad.layers[0].weight, grad.layers[0].bias)

cosine = x_hat @ x_true / (np.linalg.norm(x_hat) * np.linalg.norm(x_true))
print(f"noiseless reconstruction cosine: {cosine:.9f}")
print(f"worst coordinate error: {np.max(np.abs(x_hat - x_true)):.2e}")

# %%
# Noise as the defense
# --------------------
#
# Add Gaussian noise to the gradient at multiples of its own RMS value —
# the same shape of perturbation the private protocol applies — and track
# the median reconstruction error over repeated trials.  The error rises
# monotonically with the noise multiplier.

gw, gb = grad.layers[0].weight, grad.layers[0].bias
scale = float(np.sqrt(np.mean(gw**2)))

print("noise multiplier -> median reconstruction error (1 - cosine):")
for sigma in (0.0, 0.25, 0.5, 1.0, 2.0):
    errors = []
    for trial in range(50):
        noise = np.random.default_rng((trial, int(sigma * 100)))
        noisy_w = gw + noise.standard_normal(gw.shape) * sigma * scale
        noisy_b = gb + noise.standard_normal(gb.shape) * sigma * scale
        rec = invert_linear_gradient(noisy_w, noisy_b)
        c = rec @ x_true / (np.linalg.norm(rec) * np.linalg.norm(x_true))
        errors.append(1.0 - c)
    print(f"  sigma {sigma:>5}: {np.median(errors):.4f}")

# %%
# Why averaging alone is not enough
# ---------------------------------
#
# A batch gradient is the mean of per-sample outer products, so the
# closed form degrades gracefully rather than failing: with a few
# samples the dominant class column still leaks a blurred mixture of
# the inputs.

batch = rng.normal(size=(4, 16))
labels = rng.integers(8, size=4)
grad4 = unflatten_params(head, gradient(head, batch, labels))
leak = invert_linear_gradient(grad4.layers[0].weight, grad4.layers[0].bias)
sims = batch @ leak / (np.linalg.norm(batch, axis=1) * np.linalg.norm(leak))
print("cosine of the batch-gradient 'reconstruction' to each true input:")
print("  " + "  ".join(f"{s:+.3f}" for s in sims))
