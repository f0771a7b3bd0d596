"""Reference local SGD that the tests compare the package against.

Nothing in ``fedceo`` calls these.  ``local_train`` is the one-client
trainer that :func:`fedceo.models.local_train` replaced with lock-step
training of all K clients of a round: one model, one minibatch and one
``forward_loss``/``backward`` pair at a time.  ``train_each`` runs it
client by client on a (K, P) start array, the way a round trained before.
"""

from __future__ import annotations

import numpy as np

from fedceo.errors import EmptyDataset
from fedceo.models import Model, backward, forward_loss, unflatten_params


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


def train_each(shapes, starts: np.ndarray, features, labels, epochs: int,
               batch_size: int, lr: float, rngs) -> np.ndarray:
    """The (K, P) array of each client trained alone from its row of
    ``starts`` with :func:`local_train`."""
    return np.stack([
        local_train(Model(shapes, start), x, y, epochs, batch_size, lr, rng).params
        for start, x, y, rng in zip(starts, features, labels, rngs)
    ])
