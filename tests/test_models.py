"""Model construction, loss, gradients, flattening, and local SGD."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import sgd_oracle
from fedceo.dp import rng_stream
from fedceo.data import synth_blobs
from fedceo.errors import ShapeMismatch
from fedceo.models import (
    Model,
    evaluate,
    flatten_params,
    forward_loss,
    gradient,
    local_train,
    logistic_model,
    mlp_model,
    unflatten_params,
)
from fedceo import models
from fedceo.config import DataSpec, ModelSpec, RunConfig
from fedceo.protocol import build_dataset, build_model, select_clients
from test_acceptance import DESK


def make_batch(rng, n=32, dim=6, classes=4):
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, classes, size=n)
    return x, y


def loss_longdouble(model, x, y):
    """The same loss computed in 80-bit extended precision."""
    h = x.astype(np.longdouble)
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        z = h @ layer.weight.astype(np.longdouble)
        if layer.bias is not None:
            z = z + layer.bias.astype(np.longdouble)
        h = np.maximum(z, 0) if i < last else z
    shifted = h - h.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1))[:, None]
    return -float(log_probs[np.arange(len(y)), y].mean())


def finite_diff_worst_rel(model, x, y, rng, coords=20, step=1e-6):
    grad = gradient(model, x, y)
    vec = flatten_params(model)
    picked = rng.choice(vec.size, size=min(coords, vec.size), replace=False)
    worst = 0.0
    for j in picked:
        up, down = vec.copy(), vec.copy()
        up[j] += step
        down[j] -= step
        lo, _ = forward_loss(unflatten_params(model, down), x, y)
        hi, _ = forward_loss(unflatten_params(model, up), x, y)
        fd = (hi - lo) / (2 * step)
        rel = abs(fd - grad[j]) / max(abs(grad[j]), abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst


class TestForwardLoss:
    def test_zero_weights_give_log_num_classes(self):
        model = Model([(5, 7, True)], np.zeros(5 * 7 + 7))
        rng = np.random.default_rng(0)
        x, y = make_batch(rng, dim=5, classes=7)
        loss, _ = forward_loss(model, x, y)
        assert loss == pytest.approx(np.log(7.0), abs=1e-12)

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(1)
        for builder in (
            lambda r: logistic_model(6, 4, rng=r),
            lambda r: mlp_model(6, 16, 4, rng=r),
        ):
            model = builder(rng_stream(0, purpose="init"))
            x, y = make_batch(rng)
            loss, _ = forward_loss(model, x, y)
            assert loss == pytest.approx(loss_longdouble(model, x, y), rel=1e-12)

    def test_loss_nonnegative_and_zero_at_certainty(self):
        # a huge margin on the true class drives the loss to ~0
        model = Model([(3, 3, False)], (np.eye(3) * 50.0).ravel())
        x = np.eye(3)
        y = np.arange(3)
        loss, _ = forward_loss(model, x, y)
        assert 0.0 <= loss < 1e-12

    def test_validation(self):
        rng = np.random.default_rng(2)
        model = logistic_model(6, 4, rng=rng_stream(0, purpose="init"))
        x, y = make_batch(rng)
        with pytest.raises(ShapeMismatch):
            forward_loss(model, x[:0], y[:0])
        with pytest.raises(ShapeMismatch):
            forward_loss(model, x[:, :5], y)
        with pytest.raises(ShapeMismatch):
            forward_loss(model, x, y[:-1])
        with pytest.raises(ShapeMismatch):
            forward_loss(model, x, np.full_like(y, 9))
        with pytest.raises(ShapeMismatch):  # (n,) vs (n, 1) would compare as (n, n)
            evaluate(model, x, y.reshape(-1, 1))

    @pytest.mark.parametrize("k", [2, 32])
    def test_one_model_only(self, k):
        rng = np.random.default_rng(2)
        model = logistic_model(6, 4, rng=rng_stream(0, purpose="init"))
        clients = Model(model.shapes, np.tile(model.params, (k, 1)))
        x, y = make_batch(rng)
        for one_batch in (forward_loss, gradient, evaluate):
            with pytest.raises(ShapeMismatch):
                one_batch(clients, x, y)


class TestBackward:
    def test_finite_differences_both_architectures(self):
        rng = np.random.default_rng(3)
        for builder in (
            lambda r: logistic_model(6, 4, rng=r),
            lambda r: mlp_model(6, 16, 4, rng=r),
        ):
            model = builder(rng_stream(1, purpose="init"))
            for point in range(3):
                x, y = make_batch(np.random.default_rng(100 + point))
                assert finite_diff_worst_rel(model, x, y, rng) <= 1e-5

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(4)
        model = mlp_model(6, 8, 4, rng=rng_stream(2, purpose="init"))
        x, y = make_batch(rng, n=16)
        g1 = gradient(model, x, y)
        g2 = gradient(model, np.vstack([x, x]), np.concatenate([y, y]))
        npt.assert_allclose(g1, g2, atol=1e-14)

    def test_dead_relu_unit_gets_zero_gradient(self):
        # make hidden unit 0 output a large negative pre-activation on
        # every sample; its incoming weights must receive zero gradient
        rng = np.random.default_rng(5)
        model = mlp_model(4, 3, 2, rng=rng_stream(3, purpose="init"))
        x = np.abs(rng.standard_normal((10, 4))) + 0.5
        model.layers[0].weight[:, 0] = -1.0  # strictly negative pre-act
        y = rng.integers(0, 2, size=10)
        grad = gradient(model, x, y)
        w_grad = grad[: model.layers[0].weight.size].reshape(4, 3)
        npt.assert_array_equal(w_grad[:, 0], np.zeros(4))


class TestFlattening:
    def test_round_trip_bit_exact(self):
        model = mlp_model(5, 7, 3, bias=True, rng=rng_stream(5, purpose="init"))
        vec = flatten_params(model)
        assert vec.size == 5 * 7 + 7 + 7 * 3 + 3
        back = unflatten_params(model, vec)
        for got, want in zip(back.layers, model.layers):
            npt.assert_array_equal(got.weight, want.weight)
            npt.assert_array_equal(got.bias, want.bias)
        npt.assert_array_equal(flatten_params(back), vec)

    def test_wrong_length_rejected(self):
        model = logistic_model(4, 3, rng=rng_stream(6, purpose="init"))
        with pytest.raises(ShapeMismatch):
            unflatten_params(model, np.zeros(model.params.size + 1))
        with pytest.raises(ShapeMismatch):
            Model(model.shapes, np.zeros(model.params.size - 1))
        with pytest.raises(ShapeMismatch, match="vector or a"):
            Model(model.shapes, np.zeros((1, 1, model.params.size)))

    def test_layers_are_views_of_params(self):
        model = mlp_model(5, 7, 3, bias=True, rng=rng_stream(7, purpose="init"))
        model.layers[0].weight[2, 4] = 11.0
        model.layers[1].bias[1] = 12.0
        assert model.params[2 * 7 + 4] == 11.0
        assert model.params[-2] == 12.0
        model.params[5 * 7 + 6] = 13.0  # the first layer's last bias entry
        assert model.layers[0].bias[6] == 13.0
        model.params[5 * 7 + 7] = 14.0  # the second layer's first weight entry
        assert model.layers[1].weight[0, 0] == 14.0

    def test_unflattened_model_owns_its_vector(self):
        model = logistic_model(4, 3, rng=rng_stream(8, purpose="init"))
        vec = flatten_params(model)
        before = vec.copy()
        copy = unflatten_params(model, vec)
        copy.params[:] = 0.0
        copy.layers[0].weight[:] = 1.0
        copy.layers[0].bias[:] = 2.0
        npt.assert_array_equal(vec, before)


def train_pooled(model, xs, ys, epochs, batch_size, lr, rngs, *, scatter=None, **kwargs):
    """local_train of the clients whose samples are xs[k], ys[k], pooled
    into one split (sgd_oracle.pool_clients; scattered through it with a
    seed ``scatter``)."""
    local_train(model, *sgd_oracle.pool_clients(xs, ys, scatter=scatter), epochs, batch_size,
                lr, rngs, **kwargs)


def train_alone(model, x, y, epochs, batch_size, lr, rng):
    """A new model: ``model`` trained by local_train as a round of one client."""
    params = model.params[None].copy()
    train_pooled(Model(model.shapes, params), [x], [y], epochs, batch_size, lr, [rng])
    return unflatten_params(model, params[0])


class TestLocalTrain:
    def test_full_batch_epoch_is_one_gd_step(self):
        rng = np.random.default_rng(7)
        model = logistic_model(6, 4, rng=rng_stream(10, purpose="init"))
        x, y = make_batch(rng, n=24)
        lr = 0.3
        trained = train_alone(model, x, y, epochs=1, batch_size=24, lr=lr,
                              rng=rng_stream(0, purpose="train"))
        # replay the shuffle so the summation order matches bit for bit
        perm = rng_stream(0, purpose="train").permutation(24)
        manual = flatten_params(model) - lr * gradient(model, x[perm], y[perm])
        npt.assert_array_equal(flatten_params(trained), manual)

    def test_loss_decreases_on_separable_blobs(self):
        data = synth_blobs(num_classes=3, dim=5, samples=300, spread=0.25, seed=1)
        model = logistic_model(5, 3, rng=rng_stream(11, purpose="init"))
        before, _ = evaluate(model, data.features, data.labels)
        trained = train_alone(model, data.features, data.labels, epochs=30,
                              batch_size=300, lr=0.5,
                              rng=rng_stream(1, purpose="train"))
        after, acc = evaluate(trained, data.features, data.labels)
        assert after < before
        assert acc >= 0.95

    def test_deterministic_replay(self):
        data = synth_blobs(num_classes=3, dim=5, samples=90, spread=0.5, seed=2)
        model = logistic_model(5, 3, rng=rng_stream(12, purpose="init"))
        start = flatten_params(model)
        a, b = start[None].copy(), start[None].copy()
        for params in (a, b):
            train_pooled(Model(model.shapes, params), [data.features], [data.labels],
                         2, 16, 0.1, [rng_stream(3, round_no=4, client=1, purpose="train")])
        npt.assert_array_equal(a, b)
        # trained in place; the model it started from is untouched
        assert not np.array_equal(a[0], flatten_params(model))
        npt.assert_array_equal(flatten_params(model), start)

    def test_empty_dataset_rejected(self):
        model = logistic_model(5, 3, rng=rng_stream(13, purpose="init"))
        with pytest.raises(ShapeMismatch):
            train_pooled(Model(model.shapes, model.params[None].copy()),
                         [np.zeros((0, 5))], [np.zeros(0, dtype=int)], 1, 8, 0.1,
                         [rng_stream(0, purpose="train")])

    @pytest.mark.parametrize("rows,match", [
        (np.array([], dtype=np.int64), "non-empty"),
        (np.array([0.0, 1.0]), "integer"),
        (np.array([[0, 1]]), "1-d"),
        (np.array([3, 9]), "outside"),
        (np.array([-1, 2]), "outside"),
    ])
    def test_rows_must_index_the_split(self, rows, match):
        model = logistic_model(5, 3, rng=rng_stream(13, purpose="init"))
        x, y = make_batch(np.random.default_rng(0), n=9, dim=5, classes=3)
        with pytest.raises(ShapeMismatch, match=match):
            local_train(Model(model.shapes, model.params[None].copy()), x, y, [rows],
                        1, 8, 0.1, [rng_stream(0, purpose="train")])


# ---------------------------------------------------------------------------
# Lock-step training against the one-client reference trainer


def train_streams(clients, seed=0):
    return [rng_stream(seed, round_no=1, client=c, purpose="train") for c in clients]


def lock_step(model, starts, xs, ys, epochs, batch_size, lr, clients,
              trainer=train_pooled):
    """The (K, P) array ``trainer`` makes of ``starts``, trained in place."""
    params = np.array(starts, dtype=np.float64)
    trainer(Model(model.shapes, params), xs, ys, epochs, batch_size, lr,
            train_streams(clients))
    return params


def one_by_one(model, starts, xs, ys, epochs, batch_size, lr, clients):
    return sgd_oracle.train_each(model.shapes, starts, xs, ys, epochs, batch_size, lr,
                                 train_streams(clients))


def worst_rel(got, want):
    """Largest over clients of max |got - want| / max |want| on its row."""
    return float((np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)).max())


def ragged_clients(sizes, dim=6, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((n, dim)) for n in sizes]
    ys = [rng.integers(0, classes, size=n) for n in sizes]
    return xs, ys


def spread_starts(model, k):
    """K distinct starts around the model, so rows cannot agree by accident."""
    return model.params + 0.01 * np.arange(k)[:, None]


def round_clients(cfg):
    """The model and the round-1 clients' samples and ids of a run config."""
    train, _, parts = build_dataset(cfg)
    model = build_model(cfg, train.dim, train.num_classes)
    clients = [int(c) for c in select_clients(cfg.n_total, cfg.k_selected, 1, cfg.seed)]
    return (model, [train.features[parts[c].rows] for c in clients],
            [train.labels[parts[c].rows] for c in clients], clients)


ARCHS = {
    "logistic": lambda bias: logistic_model(6, 4, bias=bias, rng=rng_stream(20, purpose="init")),
    "mlp": lambda bias: mlp_model(6, 8, 4, bias=bias, rng=rng_stream(21, purpose="init")),
}

EDGE_CASES = [
    ((5, 40), 16, 2),          # a client smaller than one batch
    ((1, 30), 8, 2),           # a one-sample client
    ((37,), 16, 2),            # K = 1
    ((7, 12, 3), 64, 3),       # the batch is larger than every client
    ((5, 23, 40, 17), 8, 3),   # ragged clients over several epochs
    ((5, 23, 40, 17), 8, 13),  # shuffle blocks of 6, 6 and 1 epochs at dim 6
]


class TestLockStepMatchesOneByOne:
    @pytest.mark.parametrize("bias", [False, True])
    def test_equal_desk_clients_bit_identical(self, bias):
        cfg = dataclasses.replace(DESK, model=dataclasses.replace(DESK.model, bias=bias))
        model, xs, ys, clients = round_clients(cfg)
        assert {x.shape[0] for x in xs} == {80}
        starts = spread_starts(model, len(clients))
        args = (xs, ys, cfg.local_epochs, cfg.batch, cfg.lr, clients)
        npt.assert_array_equal(lock_step(model, starts, *args),
                               one_by_one(model, starts, *args))

    @pytest.mark.parametrize("mode", ["iid", "dirichlet"])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("bias", [False, True])
    def test_partitions_agree(self, mode, kind, bias):
        cfg = dataclasses.replace(
            DESK, local_epochs=3, model=ModelSpec(kind=kind, hidden=8, bias=bias),
            data=dataclasses.replace(DESK.data, partition_mode=mode, alpha=0.3))
        model, xs, ys, clients = round_clients(cfg)
        starts = spread_starts(model, len(clients))
        args = (xs, ys, cfg.local_epochs, cfg.batch, cfg.lr, clients)
        assert worst_rel(lock_step(model, starts, *args),
                         one_by_one(model, starts, *args)) <= 1e-12

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("sizes,batch_size,epochs", EDGE_CASES)
    def test_edge_cases_agree(self, kind, sizes, batch_size, epochs):
        model = ARCHS[kind](True)
        xs, ys = ragged_clients(sizes)
        clients = list(range(len(sizes)))
        starts = spread_starts(model, len(sizes))
        args = (xs, ys, epochs, batch_size, 0.2, clients)
        got = lock_step(model, starts, *args)
        assert worst_rel(got, one_by_one(model, starts, *args)) <= 1e-12
        assert not np.any(np.all(got == starts, axis=1)), "a client did not train"

    def test_batch_beyond_every_client_is_sized_by_the_largest(self):
        # A batch of 10**6 trains as one of 12, the largest client, in a
        # lock-step layout sized by that client rather than by the batch.
        model = ARCHS["mlp"](True)
        xs, ys = ragged_clients((7, 12, 3))
        starts = spread_starts(model, 3)
        tracemalloc.start()
        try:
            huge = lock_step(model, starts, xs, ys, 2, 10**6, 0.2, [0, 1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        npt.assert_array_equal(huge, lock_step(model, starts, xs, ys, 2, 12, 0.2, [0, 1, 2]))

    def test_needs_a_client_axis_and_one_dataset_and_stream_per_row(self):
        model = ARCHS["logistic"](True)
        xs, ys = ragged_clients((4, 9))
        with pytest.raises(ShapeMismatch):  # a vector model has no client axis
            train_pooled(model, xs[:1], ys[:1], 1, 4, 0.2, train_streams([0]))
        with pytest.raises(ShapeMismatch):
            lock_step(model, spread_starts(model, 2), xs[:1], ys[:1], 1, 4, 0.2, [0])

    def test_zero_epochs_leave_rows_alone(self):
        model = ARCHS["mlp"](True)
        xs, ys = ragged_clients((4, 9))
        starts = spread_starts(model, 2)
        npt.assert_array_equal(lock_step(model, starts, xs, ys, 0, 4, 0.2, [0, 1]), starts)


SIZE_ORDERS = {
    "descending": (40, 23, 17, 5),
    "ascending": (5, 17, 23, 40),
    "ties": (17, 40, 17, 5, 40),
    "interleaved": (9, 40, 3, 33, 17, 25),
    "one-large": (4, 6, 3, 60, 5),
    "k1": (29,),
}


class TestLockStepMatchesOracle:
    """local_train against the first lock-step trainer, which rebuilt the
    padding layout each epoch, ran every lock step on all K rows and ran
    each step as a caching forward pass and a backward pass from the
    cache: equal bit for bit, trained in the caller's array and order."""

    @staticmethod
    def assert_same(model, starts, xs, ys, epochs, batch_size, lr, clients, threads=1,
                    scatter=None):
        params = np.array(starts, dtype=np.float64)
        trained = Model(model.shapes, params)
        train_pooled(trained, xs, ys, epochs, batch_size, lr, train_streams(clients),
                     threads=threads, scatter=scatter)
        assert trained.params is params
        npt.assert_array_equal(
            params, lock_step(model, starts, xs, ys, epochs, batch_size, lr, clients,
                              trainer=sgd_oracle.local_train_lockstep))

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("sizes,batch_size,epochs", EDGE_CASES)
    def test_edge_cases(self, kind, bias, sizes, batch_size, epochs):
        model = ARCHS[kind](bias)
        xs, ys = ragged_clients(sizes)
        self.assert_same(model, spread_starts(model, len(sizes)), xs, ys, epochs,
                         batch_size, 0.2, list(range(len(sizes))))

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("sizes", SIZE_ORDERS.values(), ids=SIZE_ORDERS)
    def test_size_orders(self, kind, sizes):
        model = ARCHS[kind](True)
        xs, ys = ragged_clients(sizes)
        self.assert_same(model, spread_starts(model, len(sizes)), xs, ys, 3, 8, 0.2,
                         list(range(len(sizes))))

    # The rows in interleaved blocks on threads: a step with fewer active
    # clients than threads, blocks of one client, K = 1.
    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("sizes,batch_size,epochs",
                             EDGE_CASES + [(SIZE_ORDERS["interleaved"], 8, 3)])
    def test_row_blocks_on_threads(self, lifted_floors, threads, kind, sizes, batch_size,
                                   epochs):
        model = ARCHS[kind](True)
        xs, ys = ragged_clients(sizes)
        self.assert_same(model, spread_starts(model, len(sizes)), xs, ys, epochs,
                         batch_size, 0.2, list(range(len(sizes))), threads=threads)

    # Each client's rows scattered, unsorted, through a split with other
    # samples in it: a gather through offsets instead of the rows fails.
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("sizes", [SIZE_ORDERS["interleaved"], SIZE_ORDERS["ties"]],
                             ids=["interleaved", "ties"])
    def test_scattered_rows(self, lifted_floors, threads, kind, sizes):
        model = ARCHS[kind](True)
        xs, ys = ragged_clients(sizes)
        self.assert_same(model, spread_starts(model, len(sizes)), xs, ys, 3, 8, 0.2,
                         list(range(len(sizes))), threads=threads, scatter=5)

    # A padding cell is an all-zero sample labelled 0.  At these rates the
    # rows overflow, and a padding cell that read a real sample would put
    # NaNs where the oracle's zero row leaves numbers (row 0 does on the
    # pooled split at 1e17 and 1e35 without bias, on the scattered one at
    # 1e13 with it); assert_array_equal compares the NaN positions.
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("scatter", [None, 2], ids=["pooled", "scattered"])
    @pytest.mark.parametrize("lr", [1e13, 1e17, 1e35])
    @pytest.mark.parametrize("bias", [False, True])
    def test_padding_is_a_zero_sample_when_rows_diverge(self, lifted_floors, threads, scatter,
                                                         lr, bias):
        model = ARCHS["mlp"](bias)
        sizes = SIZE_ORDERS["interleaved"]
        xs, ys = ragged_clients(sizes)
        starts = spread_starts(model, len(sizes))
        with np.errstate(over="ignore", invalid="ignore"):
            want = lock_step(model, starts, xs, ys, 3, 8, lr, list(range(len(sizes))),
                             trainer=sgd_oracle.local_train_lockstep)
            assert not np.isfinite(want).all()
            self.assert_same(model, starts, xs, ys, 3, 8, lr, list(range(len(sizes))),
                             threads=threads, scatter=scatter)

    @pytest.mark.parametrize("mode", ["iid", "dirichlet"])
    def test_desk_clients(self, mode, threads=1):
        cfg = dataclasses.replace(
            DESK, data=dataclasses.replace(DESK.data, partition_mode=mode, alpha=0.3))
        model, xs, ys, clients = round_clients(cfg)
        if mode == "dirichlet":
            assert len({x.shape[0] for x in xs}) > 1, "the partition is not ragged"
        self.assert_same(model, spread_starts(model, len(clients)), xs, ys,
                         cfg.local_epochs, cfg.batch, cfg.lr, clients, threads)

    @pytest.mark.parametrize("mode", ["iid", "dirichlet"])
    def test_desk_clients_on_threads(self, lifted_floors, mode):
        self.test_desk_clients(mode, threads=2)

    def test_dirichlet_round_of_the_cli_shape(self, threads=1):
        # The benchmark's file-backed session: MLP hidden 64, K = 10 of 40,
        # batch 32, 3 epochs, 10 classes in 32 dimensions, alpha 0.5.
        cfg = RunConfig(n_total=40, k_selected=10, local_epochs=3, batch=32,
                        model=ModelSpec(kind="mlp", hidden=64),
                        data=DataSpec(classes=10, dim=32, samples=10000,
                                      partition_mode="dirichlet", alpha=0.5))
        model, xs, ys, clients = round_clients(cfg)
        sizes = [x.shape[0] for x in xs]
        assert max(sizes) >= 4 * min(sizes), sizes
        self.assert_same(model, spread_starts(model, len(clients)), xs, ys,
                         cfg.local_epochs, cfg.batch, cfg.lr, clients, threads)

    def test_dirichlet_round_of_the_cli_shape_on_threads(self, lifted_floors):
        self.test_dirichlet_round_of_the_cli_shape(threads=2)


class TestLockStepThreads:
    """Never more lock-step threads than clients, and a pool only for
    rounds with a minimum of parameters per thread."""

    def test_pool_is_capped_at_the_clients(self, lifted_floors, pool_sizes):
        model = ARCHS["mlp"](True)
        xs, ys = ragged_clients((5, 23, 40))
        got = lock_step(model, spread_starts(model, 3), xs, ys, 2, 8, 0.2, [0, 1, 2],
                        trainer=functools.partial(train_pooled, threads=10**6))
        assert pool_sizes == [3]
        npt.assert_array_equal(got, lock_step(model, spread_starts(model, 3), xs, ys, 2, 8,
                                              0.2, [0, 1, 2]))

    def test_each_thread_gets_a_minimum_of_parameters(self, pool_sizes):
        floor = models.MIN_PARAMS_PER_THREAD
        model = mlp_model(64, floor // 512, 64, rng=rng_stream(23, purpose="init"))
        assert 4 * model.params.size == floor
        xs, ys = ragged_clients((3, 2, 2, 1) * 3, dim=64, classes=64)
        for k, pools in [(4, []), (7, []), (8, [2]), (12, [3])]:
            pool_sizes.clear()
            lock_step(model, spread_starts(model, k), xs[:k], ys[:k], 1, 2, 0.2,
                      list(range(k)), trainer=functools.partial(train_pooled, threads=8))
            assert pool_sizes == pools, k

    def test_one_pool_dispatch_per_epoch(self, lifted_floors, pool_spy):
        # The rows are cut into blocks once per call, and each epoch runs
        # every block's steps in one map call, the same blocks every epoch.
        model = ARCHS["mlp"](True)
        xs, ys = ragged_clients((40, 23, 5))
        epochs = 2
        lock_step(model, spread_starts(model, 3), xs, ys, epochs, 8, 0.2, [0, 1, 2],
                  trainer=functools.partial(train_pooled, threads=2))
        assert pool_spy.sizes == [2]
        assert [len(items) for items in pool_spy.maps] == [2] * epochs
        assert all(items == pool_spy.maps[0] for items in pool_spy.maps)


class TestLockStepWork:
    """A lock step runs only the clients that still have a minibatch, on
    one thread or in row blocks on several."""

    @staticmethod
    def rows_stepped(monkeypatch, sizes, batch_size, epochs, threads):
        """The client rows of every ``_sgd_step`` call of one round, summed."""
        rows = []
        step = models._sgd_step

        def counted(model, grad, x, *rest):
            rows.append(x.shape[0])
            step(model, grad, x, *rest)

        monkeypatch.setattr(models, "_sgd_step", counted)
        model = ARCHS["mlp"](True)
        xs, ys = ragged_clients(sizes)
        lock_step(model, spread_starts(model, len(sizes)), xs, ys, epochs, batch_size,
                  0.2, list(range(len(sizes))),
                  trainer=functools.partial(train_pooled, threads=threads))
        return sum(rows)

    def test_ragged_clients_step_once_per_minibatch(self, monkeypatch, lifted_floors):
        sizes, batch_size, epochs = (5, 40, 1, 23, 17, 40), 8, 3
        for threads in (1, 2):
            assert (self.rows_stepped(monkeypatch, sizes, batch_size, epochs, threads)
                    == epochs * sum(-(-n // batch_size) for n in sizes)), threads

    def test_equal_clients_all_step(self, monkeypatch, lifted_floors):
        sizes, batch_size, epochs = (24,) * 4, 10, 2
        for threads in (1, 2):
            assert (self.rows_stepped(monkeypatch, sizes, batch_size, epochs, threads)
                    == 4 * 3 * epochs), threads


class TestLockStepPlan:
    """A call plans its lock steps once: every epoch passes ``_sgd_step``
    the very same argument objects, in the same order."""

    @staticmethod
    def steps_per_epoch(monkeypatch, model, xs, ys, epochs, batch_size, threads):
        """The arguments of every ``_sgd_step`` call of one round, one list
        an epoch.  Holding them keeps any object from being freed and its
        id reused."""
        calls = []
        step = models._sgd_step

        def spy(*args):
            calls.append(args)
            step(*args)

        monkeypatch.setattr(models, "_sgd_step", spy)
        k = len(xs)
        lock_step(model, spread_starts(model, k), xs, ys, epochs, batch_size, 0.2,
                  list(range(k)), trainer=functools.partial(train_pooled, threads=threads))
        per_epoch, rest = divmod(len(calls), epochs)
        assert per_epoch > 0 and rest == 0, (len(calls), epochs)
        return [calls[e * per_epoch:(e + 1) * per_epoch] for e in range(epochs)]

    @staticmethod
    def assert_planned_once(epochs):
        first, *later = epochs
        for e, calls in enumerate(later, start=2):
            for t, (want, got) in enumerate(zip(first, calls)):
                assert len(got) == len(want) == 6
                assert all(g is w for g, w in zip(got, want)), (e, t)

    def test_desk_round(self, monkeypatch, pool_spy):
        model, xs, ys, _ = round_clients(DESK)
        epochs = self.steps_per_epoch(monkeypatch, model, xs, ys, 3, DESK.batch, 1)
        assert pool_spy.sizes == []  # one block
        assert len(epochs[0]) == -(-80 // DESK.batch)
        self.assert_planned_once(epochs)

    def test_ragged_round_on_two_threads(self, monkeypatch, lifted_floors, pool_spy):
        # The spy pool maps on the caller, block after block, so the calls'
        # order is fixed.
        model = ARCHS["mlp"](True)
        xs, ys = ragged_clients((5, 40, 1, 23, 17, 40))
        epochs = self.steps_per_epoch(monkeypatch, model, xs, ys, 3, 8, 2)
        assert pool_spy.sizes == [2]
        prefixes = {(args[0].params.shape[0], args[2].shape[1]) for args in epochs[0]}
        assert len(prefixes) > 2, prefixes  # several active prefixes and widths
        self.assert_planned_once(epochs)


class TestLockStepMemory:
    """The gradient scratch is the one (K, P) array a round allocates: rows
    are reordered by size only while it is not alive, and every step uses
    a prefix of it."""

    @pytest.mark.parametrize("sizes", [(3, 9, 5, 12), (6, 6, 6, 6)],
                             ids=["ragged", "equal"])
    def test_no_second_row_array(self, lifted_floors, sizes):
        # 1 MiB a row against minibatches of 4 samples
        model = mlp_model(256, 512, 4, rng=rng_stream(22, purpose="init"))
        samples = sgd_oracle.pool_clients(*ragged_clients(sizes, dim=256))
        params = spread_starts(model, len(sizes))
        row = params.nbytes // len(sizes)
        for threads in (1, 2):
            tracemalloc.start()
            try:
                local_train(Model(model.shapes, params), *samples, 2, 4, 0.2,
                            train_streams(range(len(sizes))), threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < params.nbytes + row // 2, (threads, peak, params.nbytes)

    def test_no_copy_of_the_clients_samples(self, lifted_floors):
        # A wide split against a small model: the clients' 114 samples of
        # 4 KiB outweigh the gradient scratch, and a pooled copy of them
        # (or a second epoch's gather beside the first) would break the bound.
        sizes, batch_size, epochs = (40, 33, 24, 17), 8, 2
        model = mlp_model(512, 16, 4, rng=rng_stream(24, purpose="init"))
        features, labels, rows = sgd_oracle.pool_clients(
            *ragged_clients(sizes, dim=512), scatter=1)
        params = spread_starts(model, len(sizes))
        cells = -(-max(sizes) // batch_size) * len(sizes) * batch_size
        gather = cells * (features.shape[1] + model.num_classes) * 8  # samples, targets
        half_client = max(sizes) * features.shape[1] * 8 // 2
        for threads in (1, 2):
            tracemalloc.start()
            try:
                local_train(Model(model.shapes, params), features, labels, rows, epochs,
                            batch_size, 0.2, train_streams(range(len(sizes))),
                            threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < params.nbytes + gather + half_client, (threads, peak)

    def test_peak_does_not_grow_with_epochs(self):
        # 4 clients of 40 samples at dim 6 and batch 8: one xs gather is
        # 5 steps x 4 clients x 8 cells x 6 features x 8 B = 7,680 B, and
        # the orders of all 400 epochs at once would be 400 x 4 x 40 x 8 B.
        model = ARCHS["logistic"](True)
        samples = sgd_oracle.pool_clients(*ragged_clients((40,) * 4))
        gather = 5 * 4 * 8 * 6 * 8
        peaks = {}
        for epochs in (2, 400):
            params = spread_starts(model, 4)
            tracemalloc.start()
            try:
                local_train(Model(model.shapes, params), *samples, epochs, 8, 0.2,
                            train_streams(range(4)))
                peaks[epochs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] <= peaks[2] + gather, peaks


class TestEpochShuffles:
    """_lock_steps draws a block of epochs' shuffles of a client as one
    Generator.permuted call on its rows, preset in place; the digests rest
    on that matching one rng.permutation draw per epoch."""

    @pytest.mark.parametrize("n", [1, 2, 80])
    @pytest.mark.parametrize("epochs", [1, 7])
    def test_permuted_rows_are_successive_permutations(self, n, epochs):
        rows = np.random.default_rng(n).choice(1000, size=n, replace=False)
        order = np.full((epochs, 3, n + 4), -1, dtype=np.intp)
        cells = order[:, 1, :n]  # a strided (epochs, n) view
        cells[:] = rows
        block = np.random.Generator(np.random.Philox(7))
        block.permuted(cells, axis=1, out=cells)
        each = np.random.Generator(np.random.Philox(7))
        want = np.stack([rows[each.permutation(n)] for _ in range(epochs)])
        assert np.array_equal(cells, want) and block.random() == each.random(), (
            f"NumPy {np.__version__}: Generator.permuted(axis=1) no longer draws the "
            f"rows of a block as successive rng.permutation calls, which "
            f"fedceo.models._lock_steps relies on")
        order[:, 1, :n] = -1
        assert (order == -1).all(), "permuted wrote outside its view"


class TestGradientMatchesOracle:
    """forward_loss, gradient and evaluate against the first one-batch
    pair, a caching forward pass and a backward pass from the cache:
    equal bit for bit."""

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33])
    def test_one_batch(self, kind, bias, n):
        model = ARCHS[kind](bias)
        x, y = make_batch(np.random.default_rng(n), n=n)
        want_loss, cache = sgd_oracle.forward_loss(model, x, y)
        loss, probs = forward_loss(model, x, y)
        assert loss == want_loss
        npt.assert_array_equal(probs, cache.probs)
        npt.assert_array_equal(gradient(model, x, y), sgd_oracle.backward(model, cache))
        want_acc = float((np.argmax(cache.probs, axis=1) == y).mean())
        assert evaluate(model, x, y) == (want_loss, want_acc)


class TestLockStepIndependence:
    """A client's trained row does not depend on who else shares the round."""

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_equal_sizes_exact(self, kind):
        model = ARCHS[kind](True)
        xs, ys = ragged_clients((24, 24, 24))
        starts = spread_starts(model, 3)
        together = lock_step(model, starts, xs, ys, 2, 10, 0.2, [0, 1, 2])
        alone = lock_step(model, starts[1:2], xs[1:2], ys[1:2], 2, 10, 0.2, [1])
        npt.assert_array_equal(together[1], alone[0])

    @staticmethod
    def assert_finished_client_still(epochs):
        # Client 0's one minibatch is as wide as client 1's, so their first
        # lock step of an epoch matches training alone bit for bit; the four
        # steps it then sits out must leave its row exactly where it was.
        model = ARCHS["mlp"](True)
        xs, ys = ragged_clients((8, 40))
        starts = spread_starts(model, 2)
        together = lock_step(model, starts, xs, ys, epochs, 8, 0.2, [0, 1])
        alone = lock_step(model, starts[:1], xs[:1], ys[:1], epochs, 8, 0.2, [0])
        npt.assert_array_equal(together[0], alone[0])

    def test_finished_client_does_not_move(self):
        self.assert_finished_client_still(epochs=1)

    def test_padding_stays_padding_in_every_epoch(self):
        # The padding layout is built once per call and reused by each epoch.
        self.assert_finished_client_still(epochs=3)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_ragged_sizes_agree(self, kind):
        model = ARCHS[kind](True)
        xs, ys = ragged_clients((5, 23, 40))
        starts = spread_starts(model, 3)
        together = lock_step(model, starts, xs, ys, 3, 8, 0.2, [0, 1, 2])
        for c in range(3):
            alone = lock_step(model, starts[c:c + 1], xs[c:c + 1], ys[c:c + 1],
                              3, 8, 0.2, [c])
            assert worst_rel(together[c:c + 1], alone) <= 1e-12


class TestEvaluate:
    def test_predicts_by_largest_logit(self):
        model = Model([(3, 3, False)], np.eye(3).ravel())
        x = np.array([[5.0, 1.0, 0.0], [0.0, 2.0, 9.0]])
        _, acc = evaluate(model, x, np.array([0, 2]))
        assert acc == 1.0
        _, acc = evaluate(model, x, np.array([1, 2]))
        assert acc == 0.5
