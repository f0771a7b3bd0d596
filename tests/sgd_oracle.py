"""Reference local SGD that the tests compare the package against.

Nothing in ``fedceo`` calls these.  :func:`forward_loss` and
:func:`backward` are the package's first one-batch pair, kept as the
bit-for-bit oracle of :func:`fedceo.models.forward_loss`,
:func:`fedceo.models.gradient` and :func:`fedceo.models.evaluate`: a
forward pass that caches its intermediates, then a backward pass from
that cache.  ``local_train`` is the one-client trainer that lock-step
training of all K clients of a round replaced: one model, one minibatch
and one ``forward_loss``/``backward`` pair at a time.
``train_each`` runs it client by client on a (K, P) start array, the way a
round trained before.

``local_train_lockstep`` is the first lock-step trainer, kept as the
bit-for-bit oracle of :func:`fedceo.models.local_train`: it takes each
client's samples as its own arrays, pools them behind an appended
all-zero padding row labelled 0, rebuilds the padding layout every epoch
and runs each lock step as a forward pass that caches its intermediates
and each row's label index (:func:`forward_lockstep`), then a backward
pass from that cache (:func:`backward_into`).  These trainers all take
per-client sample lists; :func:`pool_clients` turns such lists into the
one split and row sets that :func:`fedceo.models.local_train` takes.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from fedceo.errors import ShapeMismatch
from fedceo.models import Model, _check_samples, unflatten_params


def forward_loss(model: Model, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of the samples x (n, d), y (n,), which are
    checked first; returns (loss, cache)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    _check_samples(model, x, y)

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
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    log_probs = shifted - log_z[..., None]
    label_at = (np.arange(y.size), y.ravel())
    loss = -float(log_probs[label_at].mean())
    cache = SimpleNamespace(inputs=inputs, pre=pre, probs=np.exp(log_probs),
                            label_at=label_at)
    return loss, cache


def backward(model: Model, cache) -> np.ndarray:
    """Gradient of the cached batch loss w.r.t. every parameter, as a new
    vector shaped like ``model.params``."""
    out = Model(model.shapes, np.empty_like(model.params))
    dz = cache.probs.copy()
    dz[cache.label_at] -= 1.0
    dz /= dz.shape[0]

    for i in range(len(model.layers) - 1, -1, -1):
        layer, grad = model.layers[i], out.layers[i]
        np.matmul(cache.inputs[i].swapaxes(-1, -2), dz, out=grad.weight)
        if layer.bias is not None:
            np.sum(dz, axis=-2, out=grad.bias)
        if i > 0:
            dz = (dz @ layer.weight.swapaxes(-1, -2)) * (cache.pre[i - 1] > 0.0)
    return out.params


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
        raise ShapeMismatch("cannot train on an empty dataset")
    out = unflatten_params(model, model.params)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, cache = forward_loss(out, features[idx], labels[idx])
            out.params -= lr * backward(out, cache)
    return out


def pool_clients(features, labels, *, scatter: int | None = None):
    """(features, labels, rows): the per-client samples ``features[k]``,
    ``labels[k]`` pooled into one split, client k's at its rows ``rows[k]``.

    The clients are pooled in order, each a contiguous run of rows.  With a
    seed ``scatter``, their samples land instead at random positions of a
    split twice as large, the rest standard normal and labelled 0, so each
    client's rows are a scattered, unsorted subset of the split.
    """
    features = [np.asarray(x, dtype=np.float64) for x in features]
    labels = [np.asarray(y) for y in labels]
    sizes = [y.shape[0] for y in labels]
    ends = np.cumsum(sizes)
    pooled_x, pooled_y = np.concatenate(features), np.concatenate(labels)
    if scatter is None:
        return pooled_x, pooled_y, [np.arange(e - n, e) for n, e in zip(sizes, ends)]
    rng = np.random.default_rng(scatter)
    at = rng.permutation(2 * pooled_y.size)[:pooled_y.size]  # where each sample lands
    x = rng.standard_normal((2 * pooled_y.size, pooled_x.shape[1]))
    y = np.zeros(2 * pooled_y.size, dtype=pooled_y.dtype)
    x[at] = pooled_x
    y[at] = pooled_y
    return x, y, [at[e - n:e] for n, e in zip(sizes, ends)]


def train_each(shapes, starts: np.ndarray, features, labels, epochs: int,
               batch_size: int, lr: float, rngs) -> np.ndarray:
    """The (K, P) array of each client trained alone from its row of
    ``starts`` with :func:`local_train`."""
    return np.stack([
        local_train(Model(shapes, start), x, y, epochs, batch_size, lr, rng).params
        for start, x, y, rng in zip(starts, features, labels, rngs)
    ])


def forward_lockstep(model: Model, x: np.ndarray, y: np.ndarray,
                     batch_sizes: np.ndarray):
    """The backward cache of a lock-step batch, x (K, R, d) and y (K, R),
    on a model holding K clients' parameters.

    Row r of client k weighs 1 / batch_sizes[k, r] in client k's gradient:
    its minibatch's size for one of its samples and infinity for padding,
    so padding adds nothing.
    """
    inputs, pre = [], []
    h = x
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        inputs.append(h)
        z = h @ layer.weight
        if layer.bias is not None:
            z = z + layer.bias[..., None, :]
        pre.append(z)
        h = np.maximum(z, 0.0) if i < last else z

    logits = pre[-1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    log_probs = shifted - log_z[..., None]
    return SimpleNamespace(inputs=inputs, pre=pre, probs=np.exp(log_probs),
                           label_at=(np.arange(y.size), y.ravel()),
                           sizes=batch_sizes[..., None])


def backward_into(model: Model, cache, out: Model) -> np.ndarray:
    """The lock-step batch's gradient, written into ``out``'s parameters."""
    dz = cache.probs.copy()
    dz.reshape(-1, dz.shape[-1])[cache.label_at] -= 1.0
    dz /= cache.sizes

    for i in range(len(model.layers) - 1, -1, -1):
        layer, grad = model.layers[i], out.layers[i]
        np.matmul(cache.inputs[i].swapaxes(-1, -2), dz, out=grad.weight)
        if layer.bias is not None:
            np.sum(dz, axis=-2, out=grad.bias)
        if i > 0:
            dz = (dz @ layer.weight.swapaxes(-1, -2)) * (cache.pre[i - 1] > 0.0)
    return out.params


def local_train_lockstep(model: Model, features, labels, epochs: int, batch_size: int,
                         lr: float, rngs) -> None:
    """Minibatch SGD of K clients in lock step, training the (K, P)
    ``model.params`` in place, with the padding layout rebuilt each epoch."""
    params = model.params
    k = params.shape[0]
    features = [np.asarray(x, dtype=np.float64) for x in features]
    labels = [np.asarray(y) for y in labels]
    for x, y in zip(features, labels):
        _check_samples(model, x, y)

    sizes = [y.shape[0] for y in labels]
    offsets = np.cumsum([0] + sizes[:-1])
    pad = sum(sizes)  # the all-zero row appended to the pooled samples
    x_all = np.concatenate(features + [np.zeros((1, model.input_dim))])
    y_all = np.concatenate(labels + [np.zeros(1, dtype=np.int64)])
    steps = -(-max(sizes) // batch_size)
    rows = min(batch_size, max(sizes))
    grad = Model(model.shapes, np.empty_like(params))
    for _ in range(epochs):
        order = np.full((k, steps * batch_size), pad)
        for c, (n, rng) in enumerate(zip(sizes, rngs)):
            order[c, :n] = offsets[c] + rng.permutation(n)
        # batches[t, c] is client c's t-th minibatch, its samples first
        batches = order.reshape(k, steps, batch_size)[:, :, :rows].swapaxes(0, 1)
        real = batches != pad
        counts = real.sum(axis=2, keepdims=True)
        batch_sizes = np.where(real, counts, np.inf)
        xs, ys = x_all[batches], y_all[batches]
        for t, width in enumerate(counts.max(axis=(1, 2))):
            cache = forward_lockstep(model, xs[t, :, :width], ys[t, :, :width],
                                     batch_sizes[t, :, :width])
            backward_into(model, cache, grad)
            np.multiply(grad.params, lr, out=grad.params)
            params -= grad.params
