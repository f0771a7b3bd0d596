"""Dense softmax classifiers with hand-written gradients.

Two architectures cover the experiments: plain multinomial logistic
regression and a one-hidden-layer ReLU network.  Parameters live in plain
float64 arrays; a model flattens to a single vector and back bit-exactly,
which is the currency the federated protocol trades in.

The loss is mean softmax cross-entropy over the batch fed in (a ragged
final minibatch divides by its own size).  ReLU uses subgradient 0 at the
kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, EmptyDataset, ShapeMismatch, StaleCache


@dataclass
class DenseLayer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray | None = None  # (fan_out,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ShapeMismatch(f"weight must be 2-d, got {self.weight.shape}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.weight.shape[1],):
                raise ShapeMismatch(
                    f"bias shape {self.bias.shape} does not match fan_out "
                    f"{self.weight.shape[1]}"
                )


@dataclass
class Model:
    layers: list[DenseLayer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def num_classes(self) -> int:
        return self.layers[-1].weight.shape[1]


def logistic_model(input_dim: int, num_classes: int, *, bias: bool = True,
                   rng: np.random.Generator) -> Model:
    return Model([_init_layer(input_dim, num_classes, bias, rng)])


def mlp_model(input_dim: int, hidden: int, num_classes: int, *, bias: bool = False,
              rng: np.random.Generator) -> Model:
    return Model([
        _init_layer(input_dim, hidden, bias, rng),
        _init_layer(hidden, num_classes, bias, rng),
    ])


def _init_layer(fan_in: int, fan_out: int, bias: bool, rng: np.random.Generator) -> DenseLayer:
    bound = 1.0 / np.sqrt(fan_in)
    weight = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return DenseLayer(weight=weight, bias=np.zeros(fan_out) if bias else None)


def clone_model(model: Model) -> Model:
    return Model([
        DenseLayer(layer.weight.copy(),
                   None if layer.bias is None else layer.bias.copy())
        for layer in model.layers
    ])


# ---------------------------------------------------------------------------
# Flat parameter vector view


def param_count(model: Model) -> int:
    return sum(
        layer.weight.size + (0 if layer.bias is None else layer.bias.size)
        for layer in model.layers
    )


def flatten_params(model: Model) -> np.ndarray:
    parts = []
    for layer in model.layers:
        parts.append(layer.weight.ravel())
        if layer.bias is not None:
            parts.append(layer.bias)
    return np.concatenate(parts)


def unflatten_params(template: Model, vec: np.ndarray) -> Model:
    """Rebuild a model shaped like ``template`` from a flat vector."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (param_count(template),):
        raise ShapeMismatch(
            f"vector length {vec.shape} does not match parameter count "
            f"{param_count(template)}"
        )
    layers, pos = [], 0
    for layer in template.layers:
        w = vec[pos:pos + layer.weight.size].reshape(layer.weight.shape).copy()
        pos += layer.weight.size
        b = None
        if layer.bias is not None:
            b = vec[pos:pos + layer.bias.size].copy()
            pos += layer.bias.size
        layers.append(DenseLayer(w, b))
    return Model(layers)


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
    """Gradient of the cached batch loss w.r.t. every parameter, flattened
    in the same order as :func:`flatten_params`."""
    if cache.model is not model:
        raise StaleCache("cache was produced by a different model object")
    n = cache.labels.shape[0]
    dz = cache.probs.copy()
    dz[np.arange(n), cache.labels] -= 1.0
    dz /= n

    grads_w = [None] * len(model.layers)
    grads_b = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        grads_w[i] = cache.inputs[i].T @ dz
        if layer.bias is not None:
            grads_b[i] = dz.sum(axis=0)
        if i > 0:
            dz = (dz @ layer.weight.T) * (cache.pre[i - 1] > 0.0)

    parts = []
    for i, layer in enumerate(model.layers):
        parts.append(grads_w[i].ravel())
        if layer.bias is not None:
            parts.append(grads_b[i])
    return np.concatenate(parts)


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
    out = clone_model(model)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, cache = forward_loss(out, features[idx], labels[idx])
            grad = backward(out, cache)
            pos = 0
            for layer in out.layers:
                w_len = layer.weight.size
                layer.weight -= lr * grad[pos:pos + w_len].reshape(layer.weight.shape)
                pos += w_len
                if layer.bias is not None:
                    layer.bias -= lr * grad[pos:pos + layer.bias.size]
                    pos += layer.bias.size
    return out
