"""Run diagnostics: roughness maps, spectral curves, gradient inversion, and
``analyze_run`` held byte for byte to the reference in ``analysis_oracle``."""

import numpy as np
import pytest

import analysis_oracle
from fedceo.analysis import (
    analyze_run,
    invert_linear_gradient,
    smoothness_map,
    spectral_curves,
)
from fedceo.config import DataSpec, ModelSpec, RunConfig
from fedceo.dp import DpConfig
from fedceo.errors import DegenerateGradient, NonFinite, ShapeMismatch
from fedceo.models import gradient, logistic_model, unflatten_params
from fedceo.protocol import run_experiment, write_run_outputs
from tensor_oracle import dft_mode3


def as_stack(mats):
    """The (features, classes, K) stack of K (classes, features) matrices."""
    return np.stack([np.asarray(m).T for m in mats], axis=2)


def naive_map(mats):
    k = len(mats)
    classes = mats[0].shape[0]
    out = np.zeros((classes, k))
    for j in range(classes):
        for a in range(k):
            s = sum(np.sum((mats[a][j] - mats[b][j]) ** 2)
                    for b in range(k) if b != a)
            out[j, a] = s / (k - 1)
    return out


# ---------------------------------------------------------------------------
# smoothness_map


def test_smoothness_identical_clients_is_zero():
    w = np.random.default_rng(0).normal(size=(4, 7))
    result = smoothness_map(as_stack([w.copy() for _ in range(5)]))
    assert result.shape == (4, 5)
    assert np.allclose(result, 0.0, atol=1e-12)
    assert result.sum() == pytest.approx(0.0, abs=1e-12)


def test_smoothness_matches_naive_double_loop():
    rng = np.random.default_rng(1)
    for _ in range(5):
        mats = [rng.normal(size=(3, 6)) for _ in range(4)]
        got = smoothness_map(as_stack(mats))
        assert np.allclose(got, naive_map(mats), atol=1e-10)


def test_smoothness_nonnegative():
    rng = np.random.default_rng(2)
    mats = [rng.normal(size=(5, 8)) * 10 for _ in range(6)]
    assert smoothness_map(as_stack(mats)).min() >= 0.0


def test_smoothness_perturbation_is_row_local():
    rng = np.random.default_rng(3)
    base = [rng.normal(size=(4, 6)) for _ in range(5)]
    before = smoothness_map(as_stack(base))
    bumped = [w.copy() for w in base]
    bumped[2][1] += 0.5  # client 2, class-1 row only
    after = smoothness_map(as_stack(bumped))
    mask = np.ones(4, dtype=bool)
    mask[1] = False
    assert np.allclose(after[mask], before[mask], atol=1e-12)
    assert not np.allclose(after[1], before[1])


def test_smoothness_invariant_under_shared_rotation_and_shift():
    rng = np.random.default_rng(4)
    mats = [rng.normal(size=(3, 5)) for _ in range(4)]
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    shift = rng.normal(size=(3, 5))
    moved = [w @ q + shift for w in mats]
    assert np.allclose(smoothness_map(as_stack(moved)),
                       smoothness_map(as_stack(mats)), atol=1e-9)


def test_smoothness_single_client_is_zero():
    result = smoothness_map(as_stack([np.ones((3, 4))]))
    assert result.shape == (3, 1)
    assert np.all(result == 0.0)


def test_smoothness_shape_errors():
    with pytest.raises(ShapeMismatch):
        smoothness_map(np.zeros((4, 2)))


def test_smoothness_overflow_raises_non_finite():
    # finite weights whose squared distances overflow float64
    huge = np.zeros((2, 3))
    huge[0, 0] = 1e300
    with pytest.raises(NonFinite):
        smoothness_map(as_stack([huge, np.zeros((2, 3))]))


def test_smoothness_total_scales_quadratically():
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(3, 4)) for _ in range(3)]
    base = smoothness_map(as_stack(mats)).sum()
    doubled = smoothness_map(as_stack([2 * w for w in mats])).sum()
    assert doubled == pytest.approx(4 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# spectral_curves


def test_spectral_curves_shape_and_ordering():
    t = np.random.default_rng(0).normal(size=(6, 4, 5))
    curves = spectral_curves(t)
    assert curves.shape == (5, 4)
    assert np.all(np.diff(curves, axis=1) <= 1e-12)


def test_spectral_curves_match_per_slice_svd():
    t = np.random.default_rng(1).normal(size=(5, 3, 4))
    spec = np.fft.fft(t, axis=2)
    curves = spectral_curves(t)
    for s in range(4):
        expected = np.linalg.svd(spec[:, :, s], compute_uv=False)
        assert np.allclose(curves[s], expected, atol=1e-10)


@pytest.mark.parametrize("shape", [(5, 3, 1), (3, 5, 2), (4, 4, 3), (6, 2, 4), (2, 7, 9)], ids=str)
def test_spectral_curves_match_full_spectrum_oracle(shape):
    # the oracle decomposes all n3 slices of the full-length DFT
    t = np.random.default_rng(sum(shape)).normal(size=shape)
    want = np.linalg.svd(np.moveaxis(dft_mode3(t), 2, 0), compute_uv=False)
    got = spectral_curves(t)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * want[:, :1])


def test_spectral_zero_frequency_is_slice_sum():
    t = np.random.default_rng(2).normal(size=(6, 4, 5))
    total = t.sum(axis=2)
    expected = np.linalg.svd(total, compute_uv=False)
    assert np.allclose(spectral_curves(t)[0], expected, atol=1e-9)


def test_spectral_identical_slices_concentrate_at_zero_frequency():
    w = np.random.default_rng(3).normal(size=(5, 3))
    t = np.repeat(w[:, :, None], 4, axis=2)
    curves = spectral_curves(t)
    scale = np.linalg.norm(w)
    assert np.allclose(curves[1:], 0.0, atol=1e-9 * (1 + scale))
    assert np.allclose(curves[0],
                       4 * np.linalg.svd(w, compute_uv=False), atol=1e-9)


def test_spectral_curves_zero_tensor():
    curves = spectral_curves(np.zeros((3, 3, 3)))
    assert np.all(curves == 0.0)


def test_spectral_top_property():
    t = np.random.default_rng(4).normal(size=(4, 4, 3))
    curves = spectral_curves(t)
    assert np.array_equal(curves[:, 0], curves.max(axis=1))


# ---------------------------------------------------------------------------
# invert_linear_gradient


def test_inversion_recovers_outer_product_input_exactly():
    rng = np.random.default_rng(0)
    x = rng.normal(size=12)
    residual = rng.normal(size=5)
    gw = np.outer(x, residual)
    recovered = invert_linear_gradient(gw, residual)
    assert np.allclose(recovered, x, rtol=1e-10, atol=1e-12)


def test_inversion_recovers_real_model_gradient():
    rng = np.random.default_rng(1)
    model = logistic_model(8, 4, bias=True, rng=rng)
    x = rng.normal(size=8)
    y = np.array([2])
    grad = unflatten_params(model, gradient(model, x[None, :], y))
    recovered = invert_linear_gradient(grad.layers[0].weight,
                                       grad.layers[0].bias)
    cosine = np.dot(recovered, x) / (np.linalg.norm(recovered) * np.linalg.norm(x))
    assert cosine >= 0.999
    assert np.allclose(recovered, x, rtol=1e-6)


def test_inversion_scale_invariant():
    rng = np.random.default_rng(2)
    x = rng.normal(size=6)
    residual = rng.normal(size=3)
    gw = np.outer(x, residual)
    for c in (1e-6, 1e6):
        assert np.allclose(invert_linear_gradient(c * gw, c * residual), x,
                           rtol=1e-9)


def test_inversion_noise_degrades_recovery():
    rng = np.random.default_rng(3)
    x = rng.normal(size=20)
    residual = rng.normal(size=10)
    gw = np.outer(x, residual)
    clean = invert_linear_gradient(gw, residual)
    noisy = invert_linear_gradient(
        gw + rng.normal(size=gw.shape), residual + rng.normal(size=10))

    def cos(v):
        return np.dot(v, x) / (np.linalg.norm(v) * np.linalg.norm(x))

    assert cos(clean) > cos(noisy)


def test_inversion_degenerate_bias_gradient():
    with pytest.raises(DegenerateGradient):
        invert_linear_gradient(np.ones((4, 3)), np.zeros(3))
    with pytest.raises(DegenerateGradient):
        invert_linear_gradient(np.ones((4, 3)), np.full(3, 1e-10))


def test_inversion_shape_errors():
    with pytest.raises(ShapeMismatch):
        invert_linear_gradient(np.ones((4, 3)), np.ones(4))
    with pytest.raises(ShapeMismatch):
        invert_linear_gradient(np.ones(4), np.ones(4))


# ---------------------------------------------------------------------------
# analyze_run, against the reference diagnostics


ORACLE_RUNS = [
    pytest.param(kind, bias, algorithm, mode, seed,
                 id=f"{kind}-bias{int(bias)}-{algorithm}-{mode}-seed{seed}")
    for kind in ("logistic", "mlp") for bias in (True, False)
    for algorithm in ("fedavg", "ldp_fedavg", "fedceo")
    for mode, seed in (("iid", 0), ("dirichlet", 3))
]


@pytest.mark.parametrize("kind,bias,algorithm,mode,seed", ORACLE_RUNS)
def test_analyze_run_matches_oracle_bytes(tmp_path, kind, bias, algorithm, mode, seed):
    cfg = RunConfig(
        n_total=6, k_selected=4, rounds=2, local_epochs=1, batch=16, lr=0.1,
        dp=DpConfig(clip_c=1.0, sigma=0.5, delta=1e-2), interval=1,
        algorithm=algorithm, seed=seed, eval_every=2,
        model=ModelSpec(kind=kind, hidden=7, bias=bias),
        data=DataSpec(classes=3, dim=5, samples=150, partition_mode=mode))
    write_run_outputs(run_experiment(cfg), tmp_path, threads=1)
    got = analyze_run(tmp_path)
    want = analysis_oracle.analyze(tmp_path)
    assert got == want
    if algorithm != "fedceo":
        # fedceo's default threshold smooths a stack this small to one
        # shared model; the other two leave the clients apart.
        assert got[1] > 0.0
