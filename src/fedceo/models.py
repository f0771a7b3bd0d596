"""Dense softmax classifiers with hand-written gradients.

Two architectures cover the experiments: plain multinomial logistic
regression and a one-hidden-layer ReLU network.  A model's parameters are
one float64 vector, the currency the federated protocol trades in; each
layer's weight and bias are views into it.  :func:`param_blocks` is the
one statement of that flat layout, and :func:`block_views` reads any
``(..., P)`` array through it.

A model's ``params`` may also carry a leading client axis, ``(K, P)``:
every layer view then has it too.  Only :func:`local_train` trains on that
axis: it runs the K clients of a round in lock step, in place in the
round's array, each lock step on only the clients that still have a
minibatch.  :func:`forward_loss` (evaluation) and :func:`gradient` (the
attack report) take one model and one batch of samples.  The lock step
(:func:`_sgd_step`), :func:`forward_loss` and :func:`gradient` share one
forward pass, :func:`_forward`; the lock step and :func:`gradient` share
one backward pass, :func:`_backward`.

The loss is mean softmax cross-entropy over the batch fed in (a ragged
final minibatch divides by its own size).  ReLU uses subgradient 0 at the
kink.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .data import check_samples
from .errors import ShapeMismatch
from .parallel import blocks, thread_map


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
    """One layer's views into its model's parameter array."""
    weight: np.ndarray       # (..., fan_in, fan_out)
    bias: np.ndarray | None  # (..., fan_out)


def _layer_views(params: np.ndarray, shapes) -> list[DenseLayer]:
    blocks = iter(block_views(params, shapes))
    return [DenseLayer(next(blocks), next(blocks)[..., 0, :] if has_bias else None)
            for _, _, has_bias in shapes]


class Model:
    """Dense layers given as (fan_in, fan_out, has_bias) triples, whose
    parameters are the flat vector ``params``; ``layers`` are views into
    it, so writing through either changes both.

    ``params`` may also be a ``(K, P)`` array of K clients' vectors, one
    per row; every layer view then has a leading client axis.
    """

    def __init__(self, shapes, params: np.ndarray):
        self.shapes = [(int(n_in), int(n_out), bool(b)) for n_in, n_out, b in shapes]
        self.params = np.asarray(params, dtype=np.float64)
        if self.params.ndim not in (1, 2):
            raise ShapeMismatch(f"parameters must be a vector or a (K, P) array, "
                                f"got {self.params.shape}")
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


def _check_samples(model: Model, x: np.ndarray, y: np.ndarray) -> None:
    """Raise :class:`ShapeMismatch` unless x (n, d) and y (n,) are samples
    (:func:`fedceo.data.check_samples`) the model takes."""
    check_samples(x, y, model.num_classes)
    if x.shape[1] != model.input_dim:
        raise ShapeMismatch(
            f"feature dim {x.shape[1]} does not match model input {model.input_dim}"
        )


def _forward(model: Model, x: np.ndarray):
    """The input fed to each layer, and the log-softmax of the logits,
    formed in place, for x (n, d) or, on a (K, P) model, x (K, R, d)."""
    inputs = []
    h = x
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        inputs.append(h)
        z = h @ layer.weight
        if layer.bias is not None:
            z += layer.bias[..., None, :]
        h = np.maximum(z, 0.0, out=z) if i < last else z

    z -= z.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1))[..., None]
    return inputs, z


def _backward(model: Model, grad: Model, inputs: list[np.ndarray], dz: np.ndarray) -> None:
    """Write into ``grad``'s views the gradient whose logit gradient is
    ``dz``, given the layer inputs of :func:`_forward`; ``dz`` may be
    overwritten."""
    for i in range(len(model.layers) - 1, -1, -1):
        layer, g = model.layers[i], grad.layers[i]
        np.matmul(inputs[i].swapaxes(-1, -2), dz, out=g.weight)
        if layer.bias is not None:
            np.sum(dz, axis=-2, out=g.bias)
        if i > 0:
            dz = dz @ layer.weight.swapaxes(-1, -2)
            dz *= inputs[i] > 0.0


def _forward_batch(model: Model, x, y):
    """The :func:`_forward` of one model on the samples x (n, d), y (n,),
    which are checked first, and the index of each row's label logit."""
    if model.params.ndim != 1:
        raise ShapeMismatch(f"one model's parameter vector is needed, "
                            f"got shape {model.params.shape}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    _check_samples(model, x, y)
    inputs, log_probs = _forward(model, x)
    return inputs, log_probs, (np.arange(y.size), y)


def forward_loss(model: Model, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of the samples x (n, d), y (n,), which are
    checked first; returns (loss, softmax probabilities (n, C))."""
    _, log_probs, label_at = _forward_batch(model, x, y)
    loss = -float(log_probs[label_at].mean())
    return loss, np.exp(log_probs, out=log_probs)


def gradient(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy of the samples x (n, d), y (n,)
    w.r.t. every parameter, as a new vector shaped like ``model.params``."""
    inputs, dz, label_at = _forward_batch(model, x, y)
    np.exp(dz, out=dz)
    dz[label_at] -= 1.0
    dz /= dz.shape[0]
    grad = Model(model.shapes, np.empty_like(model.params))
    _backward(model, grad, inputs, dz)
    return grad.params


def evaluate(model: Model, x: np.ndarray, y: np.ndarray):
    """(mean loss, accuracy) of the model on the given samples."""
    loss, probs = forward_loss(model, x, y)
    acc = float((np.argmax(probs, axis=1) == np.asarray(y)).mean())
    return loss, acc


# ---------------------------------------------------------------------------
# Local optimization

# Parameters (entries of the (K, P) array) that each thread of a lock-step
# pool must get.  On a 2-CPU host with one BLAS thread and minibatches of
# 32, 2 threads were slower than 1 on every round of up to 353,280
# parameters (the benchmark's desk and cli rounds among them), saved under
# 10% at 473,600 and 706,560, and saved 36% at stress's 3.4 million.
MIN_PARAMS_PER_THREAD = 1 << 20


def local_train(model: Model, features, labels, rows, epochs: int, batch_size: int,
                lr: float, rngs, *, threads: int = 1) -> None:
    """Plain minibatch SGD for ``epochs`` passes over each of K clients'
    samples, the K clients in lock step, training the (K, P)
    ``model.params`` in place.

    ``features`` (n, d) and ``labels`` (n,) are one split's samples, and
    client k's samples are its rows ``rows[k]`` of them: minibatches are
    gathered from the split through those rows, and no client's samples
    are copied out first.  Client k starts from row k of ``model.params``
    and trains on its samples as it would alone: it shuffles its rows anew
    each epoch, as successive permutations drawn from ``rngs[k]``, and
    keeps its final short minibatch.  Each client's shuffles of up to d
    epochs (d features a sample) are drawn in one call.  The rows train
    ordered by client size, largest first (a stable sort), and go back to
    the caller's order when training ends; rows already in that order are
    not moved.  Each lock step is then one :func:`_sgd_step` on
    a prefix of the rows, the clients that still have a minibatch in the
    epoch: a finished client sits out the steps left, so its row does not
    move.

    The rows are split over up to ``threads`` threads by the rule of
    :mod:`fedceo.parallel`, with the clients as the items and
    :data:`MIN_PARAMS_PER_THREAD` as the floor.  Its interleaved blocks
    give each thread a share of the samples that differs from another's by
    at most one client's.  Every block runs its rows' lock steps at each
    step's full minibatch width, so each client's row is the same whatever
    the thread count; :func:`_lock_steps` plans them.
    """
    params = model.params
    k = params.shape[0] if params.ndim == 2 else 0
    if k < 1 or not len(rows) == len(rngs) == k:
        raise ShapeMismatch(f"need one row set and one generator per row of a (K, P) "
                            f"parameter array, got {len(rows)} row sets, "
                            f"{len(rngs)} generators and shape {params.shape}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    _check_samples(model, features, labels)
    rows = [np.asarray(r) for r in rows]
    for c, r in enumerate(rows):
        if r.ndim != 1 or r.dtype.kind not in "iu" or r.size == 0:
            raise ShapeMismatch(f"client {c}'s rows must be a non-empty 1-d integer "
                                f"array, got {r.dtype} of shape {r.shape}")
        if r.min() < 0 or r.max() >= labels.size:
            raise ShapeMismatch(f"client {c} has a row outside [0, {labels.size})")

    rank = sorted(range(k), key=lambda c: -rows[c].shape[0])
    moved = rank != list(range(k))
    # Each permutation holds a copy of the rows only while no gradient
    # scratch is alive, so training's memory peak stays where it was.
    if moved:
        params[:] = params[rank]
    try:
        _lock_steps(model, features, labels, [rows[c] for c in rank], epochs, batch_size,
                    lr, [rngs[c] for c in rank], threads)
    finally:
        if moved:
            params[rank] = params.copy()


def _lock_steps(model: Model, features, labels, rows, epochs: int, batch_size: int,
                lr: float, rngs, threads: int) -> None:
    """The lock steps of :func:`local_train` on checked clients, given as
    row sets of the samples ``features``, ``labels``, whose sizes do not
    increase along the rows, on up to ``threads`` threads.

    Each step runs on every client's next minibatch, padded to a common
    row count, over the prefix of clients that still have one; a padding
    cell is an all-zero sample labelled 0.  The padding layout depends
    only on the client sizes, so the call builds it once, allocates the
    gradient scratch and the gathers once, and then builds each block's
    plan once: the list of its :func:`_sgd_step` calls' arguments, which
    are views of the block's rows of ``params``, of the scratch, and of
    those rows' minibatches in the gathers.  A step's blocks are the
    :func:`~fedceo.parallel.blocks` of its prefix of active rows.

    The epochs run in blocks of up to d, the features a sample, so a
    block's orders never hold more entries than the gather of one epoch's
    samples.  Per block, each client's rows are preset into its cells of
    every epoch of the block and shuffled there by one
    ``Generator.permuted`` call along the sample axis, whose row e is the
    e-th successive ``rng.permutation`` of the client's stream.  Each
    epoch of the block then gathers its samples from the split through
    its orders, zeroes the padding cells, and runs every plan in one pool
    dispatch.
    The scratch and the gathers are allocated on the calling thread: pool
    threads put them in glibc's per-thread arenas, which raised stress's
    resident peak by 11%.
    """
    params = model.params
    sizes = [r.shape[0] for r in rows]
    k = len(sizes)
    batch_size = min(batch_size, sizes[0])  # a wider minibatch would hold only padding
    steps = -(-sizes[0] // batch_size)
    # a block of span epochs' orders never holds more entries than the xs gather
    span = max(1, min(epochs, features.shape[1]))
    order = np.zeros((span, k, steps * batch_size), dtype=np.intp)  # padding reads row 0
    # batches[e, t, c] is client c's t-th minibatch in epoch e of a block, its samples first
    batches = order.reshape(span, k, steps, batch_size).swapaxes(1, 2)
    slots = np.arange(steps * batch_size).reshape(steps, 1, batch_size)
    real = slots < np.array(sizes)[:, None]  # the cells of an epoch that hold samples
    padding = None if real.all() else np.nonzero(~real)
    counts = real.sum(axis=2, keepdims=True)
    # a sample's gradient is divided by its minibatch's size, padding's by infinity
    batch_sizes = np.where(real, counts, np.inf)[..., None]
    widths = counts[:, 0, 0].tolist()  # the largest client's minibatch is the widest
    active = (counts[:, :, 0] > 0).sum(axis=1).tolist()  # clients [:a] have one at step t

    def run_plan(plan):
        for step in plan:
            _sgd_step(*step, lr)

    with thread_map(threads, k, params.size, MIN_PARAMS_PER_THREAD) as (run, workers):
        grad = np.empty_like(params)
        onehot = np.eye(model.num_classes)
        xs = np.empty(batches.shape[1:] + features.shape[1:])
        ys = np.empty(batches.shape[1:], dtype=labels.dtype)
        targets = np.empty(batches.shape[1:] + onehot.shape[1:])
        plans = [[] for _ in range(workers)]  # per block, the _sgd_step arguments of its steps
        for t, (width, a) in enumerate(zip(widths, active)):
            for b, block in enumerate(blocks(a, workers)):
                plans[b].append((Model(model.shapes, params[block]),
                                 Model(model.shapes, grad[block]), xs[t, block, :width],
                                 targets[t, block, :width], batch_sizes[t, block, :width]))
        for first in range(0, epochs, span):
            count = min(span, epochs - first)
            for c, (r, rng) in enumerate(zip(rows, rngs)):
                cells = order[:count, c, :r.shape[0]]
                cells[:] = r
                rng.permuted(cells, axis=1, out=cells)
            for epoch in batches[:count]:
                # the rows are checked, so "clip" clips nothing and gathers unbuffered
                np.take(features, epoch, axis=0, out=xs, mode="clip")
                np.take(labels, epoch, out=ys, mode="clip")
                if padding is not None:
                    xs[padding] = 0.0
                    ys[padding] = 0
                np.take(onehot, ys, axis=0, out=targets, mode="clip")
                run(run_plan, plans)


def _sgd_step(model: Model, grad: Model, x: np.ndarray, targets: np.ndarray,
              batch_sizes: np.ndarray, lr: float) -> None:
    """One lock step of K clients: x (K, R, d) and one-hot targets (K, R, C)
    are each client's minibatch, and row r of client k weighs
    1 / batch_sizes[k, r, 0] in its gradient.  ``grad`` is scratch space
    shaped like ``model``.  The softmax runs in place on the logits, and
    no loss is formed."""
    inputs, dz = _forward(model, x)
    np.exp(dz, out=dz)
    dz -= targets
    dz /= batch_sizes
    _backward(model, grad, inputs, dz)
    grad.params *= lr
    model.params -= grad.params
