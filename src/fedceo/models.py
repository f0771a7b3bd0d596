"""Dense softmax classifiers with hand-written gradients.

Two architectures cover the experiments: plain multinomial logistic
regression and a one-hidden-layer ReLU network.  A model's parameters are
one float64 vector, the currency the federated protocol trades in; each
layer's weight and bias are views into it.  :func:`param_blocks` is the
one statement of that flat layout, and :func:`block_views` reads any
``(..., P)`` array through it.

The loss is mean softmax cross-entropy over the batch fed in (a ragged
final minibatch divides by its own size).  ReLU uses subgradient 0 at the
kink.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, EmptyDataset, ShapeMismatch, StaleCache


def param_blocks(shapes) -> list[tuple[int, int]]:
    """The flat parameter layout of (fan_in, fan_out, has_bias) layers: in
    layer order, each weight as a row-major (fan_in, fan_out) block, then
    its bias as a (1, fan_out) block when the layer has one."""
    blocks = []
    for fan_in, fan_out, has_bias in shapes:
        blocks.append((fan_in, fan_out))
        if has_bias:
            blocks.append((1, fan_out))
    return blocks


def block_views(arr: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the last axis of a ``(..., P)`` array as the layout's
    blocks, each ``(..., rows, cols)``."""
    blocks = param_blocks(shapes)
    sizes = [rows * cols for rows, cols in blocks]
    if arr.shape[-1:] != (sum(sizes),):
        raise ShapeMismatch(
            f"parameter axis of shape {arr.shape} does not hold the "
            f"{sum(sizes)} parameters of layers {shapes}"
        )
    return [arr[..., end - size:end].reshape(arr.shape[:-1] + block)
            for block, size, end in zip(blocks, sizes, accumulate(sizes))]


class DenseLayer(NamedTuple):
    """One layer's views into its model's parameter vector."""
    weight: np.ndarray       # (fan_in, fan_out)
    bias: np.ndarray | None  # (fan_out,)


def _layer_views(params: np.ndarray, shapes) -> list[DenseLayer]:
    blocks = iter(block_views(params, shapes))
    return [DenseLayer(next(blocks), next(blocks)[..., 0, :] if has_bias else None)
            for _, _, has_bias in shapes]


class Model:
    """Dense layers given as (fan_in, fan_out, has_bias) triples, whose
    parameters are the flat vector ``params``; ``layers`` are views into
    it, so writing through either changes both."""

    def __init__(self, shapes, params: np.ndarray):
        self.shapes = [(int(n_in), int(n_out), bool(b)) for n_in, n_out, b in shapes]
        self.params = np.asarray(params, dtype=np.float64)
        if self.params.ndim != 1:
            raise ShapeMismatch(f"parameters must be a vector, got {self.params.shape}")
        self.layers = _layer_views(self.params, self.shapes)

    @property
    def input_dim(self) -> int:
        return self.shapes[0][0]

    @property
    def num_classes(self) -> int:
        return self.shapes[-1][1]


def logistic_model(input_dim: int, num_classes: int, *, bias: bool = True,
                   rng: np.random.Generator) -> Model:
    return _uniform_init([(input_dim, num_classes, bias)], rng)


def mlp_model(input_dim: int, hidden: int, num_classes: int, *, bias: bool = False,
              rng: np.random.Generator) -> Model:
    return _uniform_init([(input_dim, hidden, bias), (hidden, num_classes, bias)], rng)


def _uniform_init(shapes, rng: np.random.Generator) -> Model:
    """Weights U(-1/sqrt(fan_in), 1/sqrt(fan_in)), drawn layer by layer."""
    model = Model(shapes, np.zeros(sum(r * c for r, c in param_blocks(shapes))))
    for layer in model.layers:
        bound = 1.0 / np.sqrt(layer.weight.shape[0])
        layer.weight[:] = rng.uniform(-bound, bound, size=layer.weight.shape)
    return model


def flatten_params(model: Model) -> np.ndarray:
    return model.params.copy()


def unflatten_params(template: Model, vec: np.ndarray) -> Model:
    """A model shaped like ``template`` on a copy of the flat vector."""
    return Model(template.shapes, np.array(vec, dtype=np.float64))


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass
class BackwardCache:
    """Intermediates a backward pass needs, pinned to one forward call."""
    model: Model
    inputs: list[np.ndarray]   # activation fed into each layer
    pre: list[np.ndarray]      # pre-activation of each layer
    probs: np.ndarray          # softmax of the final logits
    labels: np.ndarray


def forward_loss(model: Model, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of the batch; returns (loss, cache)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2:
        raise DimMismatch(f"features must be 2-d, got {x.shape}")
    if x.shape[0] == 0:
        raise EmptyDataset("cannot evaluate an empty batch")
    if x.shape[0] != y.shape[0]:
        raise DimMismatch(f"{x.shape[0]} feature rows vs {y.shape[0]} labels")
    if x.shape[1] != model.input_dim:
        raise ShapeMismatch(
            f"feature dim {x.shape[1]} does not match model input {model.input_dim}"
        )
    if y.min() < 0 or y.max() >= model.num_classes:
        raise ShapeMismatch("label outside [0, num_classes)")

    inputs, pre = [], []
    h = x
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        inputs.append(h)
        z = h @ layer.weight
        if layer.bias is not None:
            z = z + layer.bias
        pre.append(z)
        h = np.maximum(z, 0.0) if i < last else z

    logits = pre[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    n = x.shape[0]
    loss = -float(log_probs[np.arange(n), y].mean())
    cache = BackwardCache(model=model, inputs=inputs, pre=pre,
                          probs=np.exp(log_probs), labels=y)
    return loss, cache


def backward(model: Model, cache: BackwardCache) -> np.ndarray:
    """Gradient of the cached batch loss w.r.t. every parameter, as a
    vector in the model's parameter layout."""
    if cache.model is not model:
        raise StaleCache("cache was produced by a different model object")
    n = cache.labels.shape[0]
    dz = cache.probs.copy()
    dz[np.arange(n), cache.labels] -= 1.0
    dz /= n

    grads = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        grads[i] = DenseLayer(cache.inputs[i].T @ dz,
                              None if layer.bias is None else dz.sum(axis=0))
        if i > 0:
            dz = (dz @ layer.weight.T) * (cache.pre[i - 1] > 0.0)
    return np.concatenate([g.ravel() for layer in grads for g in layer if g is not None])


def evaluate(model: Model, x: np.ndarray, y: np.ndarray):
    """(mean loss, accuracy) of the model on the given samples."""
    loss, cache = forward_loss(model, x, y)
    acc = float((np.argmax(cache.probs, axis=1) == np.asarray(y)).mean())
    return loss, acc


# ---------------------------------------------------------------------------
# Local optimization


def local_train(model: Model, features: np.ndarray, labels: np.ndarray,
                epochs: int, batch_size: int, lr: float,
                rng: np.random.Generator) -> Model:
    """Plain minibatch SGD for ``epochs`` passes; returns a new model.

    Shuffling is redrawn from ``rng`` each epoch; the final short minibatch
    is kept.  The input model is not modified.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = np.asarray(features).shape[0]
    if n == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    out = unflatten_params(model, model.params)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, cache = forward_loss(out, features[idx], labels[idx])
            out.params -= lr * backward(out, cache)
    return out
