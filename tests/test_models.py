"""Model construction, loss, gradients, flattening, and local SGD."""

import numpy as np
import numpy.testing as npt
import pytest

from fedceo.dp import rng_stream
from fedceo.data import synth_blobs
from fedceo.errors import DimMismatch, EmptyDataset, ShapeMismatch, StaleCache
from fedceo.models import (
    DenseLayer,
    Model,
    backward,
    clone_model,
    evaluate,
    flatten_params,
    forward_loss,
    local_train,
    logistic_model,
    mlp_model,
    param_count,
    unflatten_params,
)


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
    _, cache = forward_loss(model, x, y)
    grad = backward(model, cache)
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
        model = Model([DenseLayer(np.zeros((5, 7)), np.zeros(7))])
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
        model = Model([DenseLayer(np.eye(3) * 50.0)])
        x = np.eye(3)
        y = np.arange(3)
        loss, _ = forward_loss(model, x, y)
        assert 0.0 <= loss < 1e-12

    def test_validation(self):
        rng = np.random.default_rng(2)
        model = logistic_model(6, 4, rng=rng_stream(0, purpose="init"))
        x, y = make_batch(rng)
        with pytest.raises(EmptyDataset):
            forward_loss(model, x[:0], y[:0])
        with pytest.raises(ShapeMismatch):
            forward_loss(model, x[:, :5], y)
        with pytest.raises(DimMismatch):
            forward_loss(model, x, y[:-1])
        with pytest.raises(ShapeMismatch):
            forward_loss(model, x, np.full_like(y, 9))


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
        _, c1 = forward_loss(model, x, y)
        g1 = backward(model, c1)
        xx, yy = np.vstack([x, x]), np.concatenate([y, y])
        _, c2 = forward_loss(model, xx, yy)
        g2 = backward(model, c2)
        npt.assert_allclose(g1, g2, atol=1e-14)

    def test_dead_relu_unit_gets_zero_gradient(self):
        # make hidden unit 0 output a large negative pre-activation on
        # every sample; its incoming weights must receive zero gradient
        rng = np.random.default_rng(5)
        model = mlp_model(4, 3, 2, rng=rng_stream(3, purpose="init"))
        x = np.abs(rng.standard_normal((10, 4))) + 0.5
        model.layers[0].weight[:, 0] = -1.0  # strictly negative pre-act
        y = rng.integers(0, 2, size=10)
        _, cache = forward_loss(model, x, y)
        grad = backward(model, cache)
        w_grad = grad[: model.layers[0].weight.size].reshape(4, 3)
        npt.assert_array_equal(w_grad[:, 0], np.zeros(4))

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(6)
        model = logistic_model(6, 4, rng=rng_stream(4, purpose="init"))
        other = clone_model(model)
        x, y = make_batch(rng)
        _, cache = forward_loss(model, x, y)
        with pytest.raises(StaleCache):
            backward(other, cache)


class TestFlattening:
    def test_round_trip_bit_exact(self):
        model = mlp_model(5, 7, 3, bias=True, rng=rng_stream(5, purpose="init"))
        vec = flatten_params(model)
        assert vec.size == param_count(model) == 5 * 7 + 7 + 7 * 3 + 3
        back = unflatten_params(model, vec)
        for got, want in zip(back.layers, model.layers):
            npt.assert_array_equal(got.weight, want.weight)
            npt.assert_array_equal(got.bias, want.bias)
        npt.assert_array_equal(flatten_params(back), vec)

    def test_wrong_length_rejected(self):
        model = logistic_model(4, 3, rng=rng_stream(6, purpose="init"))
        with pytest.raises(ShapeMismatch):
            unflatten_params(model, np.zeros(param_count(model) + 1))


class TestLocalTrain:
    def test_full_batch_epoch_is_one_gd_step(self):
        rng = np.random.default_rng(7)
        model = logistic_model(6, 4, rng=rng_stream(10, purpose="init"))
        x, y = make_batch(rng, n=24)
        lr = 0.3
        trained = local_train(model, x, y, epochs=1, batch_size=24, lr=lr,
                              rng=rng_stream(0, purpose="train"))
        # replay the shuffle so the summation order matches bit for bit
        perm = rng_stream(0, purpose="train").permutation(24)
        _, cache = forward_loss(model, x[perm], y[perm])
        manual = flatten_params(model) - lr * backward(model, cache)
        npt.assert_array_equal(flatten_params(trained), manual)

    def test_loss_decreases_on_separable_blobs(self):
        data = synth_blobs(num_classes=3, dim=5, samples=300, spread=0.25, seed=1)
        model = logistic_model(5, 3, rng=rng_stream(11, purpose="init"))
        before, _ = evaluate(model, data.features, data.labels)
        trained = local_train(model, data.features, data.labels, epochs=30,
                              batch_size=300, lr=0.5,
                              rng=rng_stream(1, purpose="train"))
        after, acc = evaluate(trained, data.features, data.labels)
        assert after < before
        assert acc >= 0.95

    def test_deterministic_replay(self):
        data = synth_blobs(num_classes=3, dim=5, samples=90, spread=0.5, seed=2)
        model = logistic_model(5, 3, rng=rng_stream(12, purpose="init"))
        a = local_train(model, data.features, data.labels, 2, 16, 0.1,
                        rng_stream(3, round_no=4, client=1, purpose="train"))
        b = local_train(model, data.features, data.labels, 2, 16, 0.1,
                        rng_stream(3, round_no=4, client=1, purpose="train"))
        npt.assert_array_equal(flatten_params(a), flatten_params(b))
        # input model untouched
        assert not np.array_equal(flatten_params(a), flatten_params(model))

    def test_empty_dataset_rejected(self):
        model = logistic_model(5, 3, rng=rng_stream(13, purpose="init"))
        with pytest.raises(EmptyDataset):
            local_train(model, np.zeros((0, 5)), np.zeros(0, dtype=int), 1, 8, 0.1,
                        rng_stream(0, purpose="train"))


class TestEvaluate:
    def test_predicts_by_largest_logit(self):
        model = Model([DenseLayer(np.eye(3))])
        x = np.array([[5.0, 1.0, 0.0], [0.0, 2.0, 9.0]])
        _, acc = evaluate(model, x, np.array([0, 2]))
        assert acc == 1.0
        _, acc = evaluate(model, x, np.array([1, 2]))
        assert acc == 0.5
