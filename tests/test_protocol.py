"""Federated protocol loop: scheduling, stacking, smoothing, determinism."""

import dataclasses
import json
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest

import sgd_oracle
from config_oracle import config_file_text
from fedceo import protocol
from fedceo.config import (
    DataSpec,
    ModelSpec,
    RunConfig,
    config_to_dict,
    parse_config_text,
)
from fedceo.dp import DpConfig, rng_stream
from fedceo.errors import NoConvergence, ShapeMismatch, ValidationError
from fedceo.models import flatten_params, logistic_model, mlp_model
from fedceo.parallel import usable_cpus
from fedceo.protocol import (
    MetricsRow,
    build_dataset,
    metrics_csv_text,
    run_experiment,
    select_clients,
    server_smooth,
    smoothing_threshold,
    stack_clients,
    unstack_clients,
    whole_dataset,
    write_run_outputs,
)
from fedceo.data import save_dataset, synth_blobs
from fedceo.tensor import load_tensors, tnn
from tensor_oracle import truncated_svd_matrix

TINY = RunConfig(
    n_total=6, k_selected=3, rounds=4, local_epochs=1, batch=16, lr=0.1,
    dp=DpConfig(clip_c=1.0, sigma=0.5, delta=1e-2),
    lambda0=0.5, ratio=1.0, interval=2, algorithm="ldp_fedavg", seed=0,
    eval_every=2, model=ModelSpec(kind="logistic"),
    data=DataSpec(classes=3, dim=5, samples=120),
)


def random_mlp(seed=0, hidden=4, dim=5, classes=3):
    return mlp_model(dim, hidden, classes, bias=True,
                     rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# threads: how many threads train, draw noise and decompose Fourier slices;
# it changes no result


def test_run_experiment_smooths_on_usable_cpus_by_default(monkeypatch):
    seen = []
    real = protocol.truncated_tsvd

    def recording(t, tau, *, threads=1, out=None):
        seen.append(threads)
        return real(t, tau, threads=threads, out=out)

    monkeypatch.setattr(protocol, "truncated_tsvd", recording)
    # Passes at rounds 2 and 4, each over a weight stack and a bias stack.
    cfg = dataclasses.replace(TINY, algorithm="fedceo")
    run_experiment(cfg)
    assert seen == [usable_cpus()] * 4 and usable_cpus() >= 1
    seen.clear()
    run_experiment(cfg, threads=3)
    assert seen == [3] * 4


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_threads_reach_training_noise_and_smoothing(monkeypatch):
    seen = {}
    for name in ("local_train", "gaussianize", "truncated_tsvd"):
        def recording(*args, threads, _real=getattr(protocol, name), _name=name, **kwargs):
            seen.setdefault(_name, []).append(threads)
            return _real(*args, threads=threads, **kwargs)

        monkeypatch.setattr(protocol, name, recording)
    # 4 rounds; passes at rounds 2 and 4, each over a weight and a bias stack
    run_experiment(dataclasses.replace(TINY, algorithm="fedceo"), threads=3)
    assert seen == {"local_train": [3] * 4, "gaussianize": [3] * 4, "truncated_tsvd": [3] * 4}


@pytest.mark.parametrize("mode", ["iid", "dirichlet"])
def test_every_phase_on_threads_changes_no_bit(lifted_floors, mode):
    cfg = dataclasses.replace(
        TINY, n_total=8, k_selected=5, algorithm="fedceo", eval_every=1,
        model=ModelSpec(kind="mlp", hidden=6, bias=True),
        data=dataclasses.replace(TINY.data, samples=300, partition_mode=mode, alpha=0.3))
    want = run_experiment(cfg, threads=1)
    for threads in (2, 5):
        got = run_experiment(cfg, threads=threads)
        assert metrics_csv_text(got.metrics) == metrics_csv_text(want.metrics)
        for g, w in zip(got.final_stack, want.final_stack):
            assert g.tobytes() == w.tobytes()


# The benchmark's run shapes: desk, the cli session's run (a file of the
# same shape there) and one round of stress.
CLI_RUN = RunConfig(
    n_total=40, k_selected=10, rounds=5, interval=5, algorithm="fedceo",
    model=ModelSpec(kind="mlp", hidden=64),
    data=DataSpec(classes=10, dim=32, samples=10000, spread=1.0,
                  partition_mode="dirichlet", alpha=0.5))
STRESS_ROUND = RunConfig(
    n_total=100, k_selected=50, rounds=1, local_epochs=1, batch=32, lr=0.2,
    interval=1, eval_every=1, algorithm="fedceo",
    model=ModelSpec(kind="mlp", hidden=256),
    data=DataSpec(classes=10, dim=256, samples=10000))


def test_only_large_rounds_start_pools(pool_sizes):
    from test_acceptance import DESK

    # A huge --threads value is capped, not run: the spy starts no thread.
    desk = dataclasses.replace(DESK, rounds=2, interval=2, algorithm="fedceo")
    for cfg in (desk, CLI_RUN):
        run_experiment(cfg, threads=10**6)
        assert pool_sizes == [], cfg
    run_experiment(STRESS_ROUND, threads=10**6)
    # Lock steps: 3.4 million parameters over 2**20 a thread.  Noise: over
    # 2**17 draws a thread.  The (256, 256, 50) stack: 26 distinct slices;
    # the (256, 10, 50) one stays on the caller.
    assert pool_sizes == [3, 25, 26]


@pytest.mark.parametrize("threads", [1, 2])
def test_server_smooth_returns_c_ordered_uploads(lifted_floors, threads):
    # A (K, P) array in another order would sum its client mean in
    # another order too.
    rng = np.random.default_rng(74)
    template = mlp_model(5, 4, 3, bias=True, rng=rng)
    uploads = rng.standard_normal((6, template.params.size))
    out, _ = server_smooth(uploads, template, 0.3, threads=threads)
    assert out.flags.c_contiguous


# ---------------------------------------------------------------------------
# select_clients


def test_select_clients_sorted_unique_in_range():
    ids = select_clients(10, 4, round_no=7, seed=3)
    assert ids.dtype == np.int64
    assert list(ids) == sorted(set(ids))
    assert ids.min() >= 0 and ids.max() < 10


def test_select_clients_deterministic_and_round_dependent():
    a = select_clients(20, 5, round_no=1, seed=0)
    b = select_clients(20, 5, round_no=1, seed=0)
    assert np.array_equal(a, b)
    later = [select_clients(20, 5, round_no=r, seed=0) for r in range(2, 12)]
    assert any(not np.array_equal(a, c) for c in later)


def test_select_clients_full_participation():
    assert list(select_clients(5, 5, round_no=1, seed=0)) == [0, 1, 2, 3, 4]


def test_select_clients_covers_everyone_eventually():
    seen = set()
    for r in range(1, 60):
        seen.update(int(c) for c in select_clients(6, 2, round_no=r, seed=1))
    assert seen == set(range(6))


def test_select_clients_rejects_bad_k():
    # The k range lives in RunConfig; select_clients takes its values.
    for k in (6, 0):
        with pytest.raises(ValidationError) as err:
            RunConfig(n_total=5, k_selected=k)
        assert err.value.field == "k_selected"


# ---------------------------------------------------------------------------
# smoothing_threshold


def test_threshold_geometric_schedule_frozen_value():
    # 1/(2*0.5) * 2**3 = 8, the pass of round 30 at interval 10
    assert smoothing_threshold(0.5, 2.0, passes=3) == 8.0


def test_threshold_flat_when_ratio_is_one():
    for passes in (1, 2, 9):
        assert smoothing_threshold(0.25, 1.0, passes=passes) == 2.0


def test_threshold_saturates_at_infinity():
    # ratio ** 2 overflows float64; so does 1 / (2 * lambda0).
    assert smoothing_threshold(0.5, 1e300, 2) == math.inf
    assert smoothing_threshold(1e-320, 1.0, 1) == math.inf


def test_threshold_grows_geometrically():
    taus = [smoothing_threshold(0.5, 1.1, passes=p) for p in (1, 2, 3)]
    assert taus[1] / taus[0] == pytest.approx(1.1, rel=1e-12)
    assert taus[2] / taus[1] == pytest.approx(1.1, rel=1e-12)


def test_threshold_parameter_validation():
    # The schedule's parameter rules live in RunConfig.
    for kwargs, field in [(dict(lambda0=0.0), "lambda0"), (dict(ratio=0.9), "ratio"),
                          (dict(interval=0), "interval")]:
        with pytest.raises(ValidationError) as err:
            RunConfig(**kwargs)
        assert err.value.field == field


# ---------------------------------------------------------------------------
# stack / unstack


def uploads_of(models):
    """The (K, P) upload array of a list of client models."""
    return np.stack([flatten_params(m) for m in models])


def test_stack_unstack_roundtrip_mlp_with_bias():
    models = [random_mlp(seed=s) for s in range(4)]
    uploads = uploads_of(models)
    tensors = stack_clients(uploads, models[0])
    # 2 layers, each with a bias tensor
    assert len(tensors) == 4
    assert tensors[0].shape == (5, 4, 4)   # layer-0 weight
    assert tensors[1].shape == (1, 4, 4)   # layer-0 bias
    assert tensors[2].shape == (4, 3, 4)   # layer-1 weight
    assert tensors[3].shape == (1, 3, 4)   # layer-1 bias
    back = unstack_clients(tensors, models[0])
    assert back.shape == uploads.shape
    assert np.array_equal(back, uploads)


def test_stack_slices_match_client_order():
    models = [random_mlp(seed=s) for s in range(3)]
    tensors = stack_clients(uploads_of(models), models[0])
    for k, m in enumerate(models):
        assert np.array_equal(tensors[0][:, :, k], m.layers[0].weight)
        assert np.array_equal(tensors[1][0, :, k], m.layers[0].bias)
        assert np.array_equal(tensors[2][:, :, k], m.layers[1].weight)
        assert np.array_equal(tensors[3][0, :, k], m.layers[1].bias)


def test_stack_rejects_mixed_architectures():
    # One (K, P) array cannot mix architectures; what is left to reject is
    # an array whose width is not the template's parameter count.
    models = [random_mlp(seed=s) for s in range(2)]
    uploads = uploads_of(models)
    with pytest.raises(ShapeMismatch):
        stack_clients(uploads_of([random_mlp(hidden=5)] * 2), models[0])
    with pytest.raises(ShapeMismatch):
        stack_clients(uploads[:, :-1], models[0])
    with pytest.raises(ShapeMismatch):
        stack_clients(uploads[0], models[0])
    with pytest.raises(ShapeMismatch):
        stack_clients(uploads[:0], models[0])


def test_unstack_rejects_wrong_tensor_count():
    models = [random_mlp(seed=s) for s in range(2)]
    tensors = stack_clients(uploads_of(models), models[0])
    with pytest.raises(ShapeMismatch):
        unstack_clients(tensors[:-1], models[0])
    with pytest.raises(ShapeMismatch, match="tensor 1 shape"):
        unstack_clients([tensors[0], tensors[1][:, :, :1], *tensors[2:]], models[0])


# ---------------------------------------------------------------------------
# server_smooth


def test_server_smooth_zero_threshold_is_identity():
    models = [random_mlp(seed=s) for s in range(3)]
    uploads = uploads_of(models)
    before = uploads.copy()  # smoothed in place
    out, _ = server_smooth(uploads, models[0], 0.0)
    for a, b in zip(before, out):
        assert np.linalg.norm(a - b) <= 1e-10 * (1 + np.linalg.norm(a))


def test_server_smooth_identical_clients_reduce_to_matrix_rule():
    base = random_mlp(seed=7)
    k, tau = 5, 0.8
    out, _ = server_smooth(uploads_of([base] * k), base, tau)
    expected_w = truncated_svd_matrix(base.layers[0].weight, tau / k)
    for w in stack_clients(out, base)[0].transpose(2, 0, 1):
        assert np.allclose(w, expected_w, atol=1e-9)


def test_server_smooth_never_increases_tnn():
    models = [random_mlp(seed=s) for s in range(4)]
    uploads = uploads_of(models)
    before = stack_clients(uploads.copy(), models[0])  # smoothed in place
    out, tnn_total = server_smooth(uploads, models[0], 0.3)
    after = stack_clients(out, models[0])
    for b, a in zip(before, after):
        assert tnn(a) <= tnn(b) + 1e-12
    assert tnn_total == pytest.approx(sum(tnn(a) for a in after), rel=1e-12)


def test_server_smooth_transforms_each_layer_stack_once(monkeypatch):
    models = [random_mlp(seed=s) for s in range(4)]
    calls = {"rfft": 0, "eigh": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(np.fft, "rfft")
    counted(np.linalg, "eigh")
    server_smooth(uploads_of(models), models[0], 0.3)
    stacks = len(stack_clients(uploads_of(models), models[0]))
    assert stacks == 4
    # one eigendecomposition per distinct Fourier slice: 4 // 2 + 1 per
    # stack of 4 clients
    assert calls == {"rfft": stacks, "eigh": stacks * 3}


def test_server_smooth_writes_back_into_the_uploads():
    models = [random_mlp(seed=s) for s in range(4)]
    uploads = uploads_of(models)
    want, want_norm = server_smooth(uploads.copy(), models[0], 0.3)
    out, norm = server_smooth(uploads, models[0], 0.3)
    assert out is uploads
    assert out.tobytes() == want.tobytes() and norm == want_norm


@pytest.mark.parametrize("kind", ["float32", "list", "fortran", "read-only"])
def test_server_smooth_copies_what_it_cannot_write_back_into(kind):
    models = [random_mlp(seed=s) for s in range(4)]
    uploads = uploads_of(models)
    given = {"float32": uploads.astype(np.float32), "list": uploads.tolist(),
             "fortran": np.asfortranarray(uploads), "read-only": uploads}[kind]
    if kind == "read-only":
        uploads.flags.writeable = False
    kept = np.array(given)
    want, want_norm = server_smooth(np.array(given, dtype=np.float64), models[0], 0.3)
    out, norm = server_smooth(given, models[0], 0.3)
    assert out is not given and out.dtype == np.float64 and out.flags.c_contiguous
    assert out.tobytes() == want.tobytes() and norm == want_norm
    assert np.array_equal(np.array(given), kept)


def test_server_smooth_no_convergence_leaves_the_uploads_alone(monkeypatch):
    # At 0.3 each of the first stack's 3 distinct slices takes one
    # eigendecomposition (see the test above); the last one fails after
    # the first two slices were shrunk.
    models = [random_mlp(seed=s) for s in range(4)]
    uploads = uploads_of(models)
    before = uploads.copy()
    calls = []
    real_eigh = np.linalg.eigh

    def flaky(a, *args, **kwargs):
        calls.append(a.shape)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    with pytest.raises(NoConvergence, match="Fourier slice 2"):
        server_smooth(uploads, models[0], 0.3)
    assert uploads.tobytes() == before.tobytes()


def test_server_smooth_allocates_about_one_copy_of_the_uploads():
    # One (64, 32, 50) stack: 26 distinct slices in one complex buffer
    # near the uploads' size, then the inverse transform writes back into
    # the uploads.  A second slice buffer or a new smoothed array would
    # each add another copy.
    template = logistic_model(64, 32, bias=False, rng=np.random.default_rng(3))
    uploads = np.random.default_rng(4).standard_normal((50, template.params.size))
    slice_factors = 8 * 64 * 32 * 16  # a few complex (64, 32) matrices
    tracemalloc.start()
    try:
        server_smooth(uploads, template, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * uploads.nbytes + slice_factors, (peak, uploads.nbytes)


def test_server_smooth_huge_threshold_zeroes_everything():
    models = [random_mlp(seed=s) for s in range(3)]
    out, tnn_total = server_smooth(uploads_of(models), models[0], 1e6)
    assert out.shape == (3, flatten_params(models[0]).size)
    assert np.allclose(out, 0.0, atol=1e-12)
    assert tnn_total == 0.0


# ---------------------------------------------------------------------------
# run_experiment: algorithm equivalences


def test_fedceo_without_any_smoothing_round_matches_ldp_exactly():
    ldp = run_experiment(dataclasses.replace(TINY, algorithm="ldp_fedavg"))
    lazy = run_experiment(
        dataclasses.replace(TINY, algorithm="fedceo", interval=TINY.rounds + 1))
    assert np.array_equal(flatten_params(ldp.final_model),
                          flatten_params(lazy.final_model))
    assert ldp.metrics == lazy.metrics


def test_fedceo_vanishing_threshold_matches_ldp_closely():
    # Smoothing on the final round only, with a threshold small enough to
    # keep every singular value: the smoothing pass is a no-op and no later
    # round consumes the personalized restart.
    ldp = run_experiment(dataclasses.replace(TINY, algorithm="ldp_fedavg"))
    soft = run_experiment(
        dataclasses.replace(TINY, algorithm="fedceo", lambda0=1e12,
                            interval=TINY.rounds))
    dist = np.linalg.norm(flatten_params(ldp.final_model)
                          - flatten_params(soft.final_model))
    assert dist <= 1e-6


def test_personalized_restarts_alter_the_run_even_at_zero_threshold():
    # A mid-run smoothing round hands the selected clients their own
    # (un-shrunk) uploads as next-round starting points instead of the
    # global mean, so the trajectory forks from plain averaging.
    ldp = run_experiment(dataclasses.replace(TINY, algorithm="ldp_fedavg"))
    soft = run_experiment(
        dataclasses.replace(TINY, algorithm="fedceo", lambda0=1e12, interval=2))
    assert not np.allclose(flatten_params(ldp.final_model),
                           flatten_params(soft.final_model), atol=1e-9)


# The benchmark's cli run config, on blobs of its data file's shape.
CLI_BLOBS = RunConfig(
    n_total=40, k_selected=10, rounds=20, interval=5, algorithm="fedceo",
    model=ModelSpec(kind="mlp", hidden=64),
    data=DataSpec(classes=10, dim=32, samples=10000, partition_mode="dirichlet", alpha=0.5))


@pytest.mark.parametrize("seed", range(5))
def test_no_resume_at_a_vanishing_threshold_is_ldp_fedavg(monkeypatch, seed):
    # Every smoothed row replaced by the rows' mean takes the personalized
    # resume away; at tau0 = 5e-10 the smoothing pass keeps every singular
    # value, so fedceo is ldp_fedavg up to the pass's rounding.
    def no_resume(uploads, template, threshold, *, threads=1):
        smoothed, norm = server_smooth(uploads, template, threshold, threads=threads)
        smoothed[:] = smoothed.mean(axis=0)
        return smoothed, norm

    ldp = run_experiment(dataclasses.replace(CLI_BLOBS, algorithm="ldp_fedavg", seed=seed),
                         threads=1)
    monkeypatch.setattr(protocol, "server_smooth", no_resume)
    got = run_experiment(dataclasses.replace(CLI_BLOBS, lambda0=1e9, seed=seed), threads=1)
    assert [(r.round, r.acc) for r in got.metrics] == [(r.round, r.acc) for r in ldp.metrics]
    for g, w in zip(got.metrics, ldp.metrics):
        assert abs(g.loss - w.loss) <= 1e-8 * w.loss


def test_clip_and_noise_limits_recover_plain_averaging():
    plain = run_experiment(dataclasses.replace(TINY, algorithm="fedavg"))
    limits = run_experiment(dataclasses.replace(
        TINY, algorithm="ldp_fedavg",
        dp=DpConfig(clip_c=1e9, sigma=1e-300, delta=1e-2)))
    # A clip bound no delta reaches divides by exactly 1.0, and noise of
    # std ~6e-292 vanishes in start + lr * update: every bit agrees.
    assert np.array_equal(flatten_params(plain.final_model),
                          flatten_params(limits.final_model))
    assert ([(r.loss, r.acc) for r in plain.metrics]
            == [(r.loss, r.acc) for r in limits.metrics])


def test_aggressive_smoothing_changes_the_run():
    ldp = run_experiment(dataclasses.replace(TINY, algorithm="ldp_fedavg"))
    hard = run_experiment(
        dataclasses.replace(TINY, algorithm="fedceo", lambda0=1e-6, interval=1))
    assert not np.allclose(flatten_params(ldp.final_model),
                           flatten_params(hard.final_model))


def test_fedavg_ignores_noise_settings():
    a = run_experiment(dataclasses.replace(
        TINY, algorithm="fedavg", dp=DpConfig(sigma=5.0)))
    b = run_experiment(dataclasses.replace(
        TINY, algorithm="fedavg", dp=DpConfig(sigma=0.01)))
    assert np.array_equal(flatten_params(a.final_model),
                          flatten_params(b.final_model))


# ---------------------------------------------------------------------------
# run_experiment: lock-step training against clients trained one by one


def train_one_by_one(model, features, labels, rows, epochs, batch_size, lr, rngs, *,
                     threads):
    """A stand-in for local_train: the reference trainer, client by client
    on copies of its rows' samples, on the caller's thread."""
    model.params[:] = sgd_oracle.train_each(model.shapes, model.params,
                                            [features[r] for r in rows],
                                            [labels[r] for r in rows],
                                            epochs, batch_size, lr, rngs)


@pytest.mark.parametrize("mode", ["iid", "dirichlet"])
@pytest.mark.parametrize("kind", ["logistic", "mlp"])
@pytest.mark.parametrize("bias", [False, True])
def test_rounds_match_clients_trained_one_by_one(monkeypatch, mode, kind, bias):
    # 30 samples per client (a short last minibatch) for iid; ragged
    # Dirichlet clients.  fedceo smooths every other round,
    # so personalized restarts reach the later rounds.
    cfg = dataclasses.replace(
        TINY, n_total=8, k_selected=4, rounds=5, local_epochs=2, interval=2,
        eval_every=1, algorithm="fedceo", model=ModelSpec(kind=kind, hidden=6, bias=bias),
        data=dataclasses.replace(TINY.data, samples=300, partition_mode=mode, alpha=0.3))
    got = run_experiment(cfg)
    monkeypatch.setattr(protocol, "local_train", train_one_by_one)
    want = run_experiment(cfg)
    if mode != "dirichlet":
        assert metrics_csv_text(got.metrics) == metrics_csv_text(want.metrics)
        for g, w in zip(got.final_stack, want.final_stack):
            assert np.array_equal(g, w)
        return
    for g, w in zip(got.metrics, want.metrics):
        assert (g.round, g.acc) == (w.round, w.acc)
        assert abs(g.loss - w.loss) <= 1e-12 * abs(w.loss)
        assert math.isnan(w.tnn_total) or abs(g.tnn_total - w.tnn_total) <= 1e-12 * w.tnn_total
    for g, w in zip(got.final_stack, want.final_stack):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


# ---------------------------------------------------------------------------
# run_experiment: determinism


def test_same_seed_same_run():
    a = run_experiment(TINY)
    b = run_experiment(TINY)
    assert np.array_equal(flatten_params(a.final_model),
                          flatten_params(b.final_model))
    assert a.metrics == b.metrics


def test_different_seed_different_run():
    a = run_experiment(TINY)
    b = run_experiment(dataclasses.replace(TINY, seed=1))
    assert not np.array_equal(flatten_params(a.final_model),
                              flatten_params(b.final_model))


def test_shared_data_seed_fixes_the_dataset():
    a = dataclasses.replace(TINY, seed=0,
                            data=dataclasses.replace(TINY.data, seed=42))
    b = dataclasses.replace(TINY, seed=9,
                            data=dataclasses.replace(TINY.data, seed=42))
    train_a, test_a, _ = build_dataset(a)
    train_b, test_b, _ = build_dataset(b)
    assert np.array_equal(train_a.features, train_b.features)
    assert np.array_equal(test_a.labels, test_b.labels)


def test_build_dataset_holds_one_copy_of_the_train_split():
    # Each client is its rows of the train split, not a copy of its samples.
    cfg = dataclasses.replace(TINY, n_total=20,
                              data=dataclasses.replace(TINY.data, dim=64, samples=3600))
    build_dataset(TINY)  # the modules a first call imports are not the data
    tracemalloc.start()
    try:
        train, test, parts = build_dataset(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    split = train.features.nbytes + train.labels.nbytes
    one_copy = (split + test.features.nbytes + test.labels.nbytes
                + sum(p.rows.nbytes for p in parts))
    assert sum(p.n for p in parts) == train.n
    assert held < one_copy + split // 4, (held, one_copy)


def test_a_round_trains_without_the_last_rounds_uploads(monkeypatch):
    # fedceo smooths every round, so each round after the first resumes
    # the clients it shares with the round before from their slices.  When
    # a round starts training, the last round's (K, P) array is gone: the
    # memory held beyond round 1's is one compact copy of those slices.
    cfg = dataclasses.replace(
        TINY, n_total=8, k_selected=4, rounds=4, interval=1, eval_every=4,
        algorithm="fedceo", model=ModelSpec(kind="mlp", hidden=512),
        data=dataclasses.replace(TINY.data, dim=256, samples=240))
    rounds = [set(select_clients(8, 4, r, cfg.seed)) for r in range(1, 5)]
    resumed = [0] + [len(a & b) for a, b in zip(rounds, rounds[1:])]
    assert 0 < min(resumed[1:]) and max(resumed) < 4, resumed
    smoothed, held, row_bytes = [], [], set()
    smooth, train = protocol.server_smooth, protocol.local_train

    def smooth_spy(*args, **kwargs):
        uploads, norm = smooth(*args, **kwargs)
        smoothed.append(weakref.ref(uploads))
        return uploads, norm

    def train_spy(model, *args, **kwargs):
        assert all(ref() is None for ref in smoothed), "a last round's uploads are alive"
        held.append(tracemalloc.get_traced_memory()[0])
        row_bytes.add(model.params[0].nbytes)
        train(model, *args, **kwargs)

    monkeypatch.setattr(protocol, "server_smooth", smooth_spy)
    monkeypatch.setattr(protocol, "local_train", train_spy)
    tracemalloc.start()
    try:
        run_experiment(cfg, threads=1)
    finally:
        tracemalloc.stop()
    (row,) = row_bytes
    assert len(held) == 4 and row >= 2**20
    for r in range(1, 4):
        assert held[r] - held[0] < resumed[r] * row + row // 2, (r, resumed, held)


def test_build_model_keeps_one_rounds_uploads_below_2_63_bytes(monkeypatch):
    # dim 5, 3 classes, no bias: P = 8 * hidden, so K = 4 uploads take
    # 256 * hidden bytes, exactly 2**63 at hidden = 2**55.
    monkeypatch.setattr(protocol, "mlp_model", lambda *args, **kwargs: "allocated")
    for hidden, allowed in ((2 ** 55 - 1, True), (2 ** 55, False), (10 ** 18, False)):
        cfg = dataclasses.replace(TINY, k_selected=4,
                                  model=ModelSpec(kind="mlp", hidden=hidden))
        if allowed:
            assert protocol.build_model(cfg, 5, 3) == "allocated"
        else:
            with pytest.raises(ValidationError) as err:
                protocol.build_model(cfg, 5, 3)
            assert err.value.field == "model.hidden"


def file_config(tmp_path):
    path = tmp_path / "blobs.ds"
    save_dataset(path, synth_blobs(3, 5, 120, 1.0, 4))
    return dataclasses.replace(TINY, algorithm="fedceo", data=DataSpec(
        source="file", path=str(path), partition_mode="dirichlet"))


@pytest.mark.parametrize("source", ["blobs", "file"])
def test_a_loaded_dataset_runs_as_the_config_alone(tmp_path, source):
    # The run on a dataset loaded beforehand is the oracle run, bit for bit.
    cfg = TINY if source == "blobs" else file_config(tmp_path)
    full = whole_dataset(cfg)
    given = run_experiment(cfg, full)
    alone = run_experiment(cfg)
    assert metrics_csv_text(given.metrics) == metrics_csv_text(alone.metrics)
    assert len(given.final_stack) == len(alone.final_stack)
    for a, b in zip(given.final_stack, alone.final_stack):
        assert a.tobytes() == b.tobytes()


def test_a_run_leaves_its_loaded_dataset_as_it_was(tmp_path):
    cfg = file_config(tmp_path)
    full = whole_dataset(cfg)
    features, labels = full.features.copy(), full.labels.copy()
    for seed in (0, 1):
        run_experiment(dataclasses.replace(cfg, seed=seed), full)
    assert full.features.tobytes() == features.tobytes()
    assert np.array_equal(full.labels, labels)


# ---------------------------------------------------------------------------
# run_experiment: metrics rows


def test_eval_cadence_includes_final_round():
    res = run_experiment(dataclasses.replace(TINY, rounds=10, eval_every=4))
    assert [r.round for r in res.metrics] == [4, 8, 10]


def test_eval_cadence_sparser_than_run():
    res = run_experiment(dataclasses.replace(TINY, rounds=3, eval_every=5))
    assert [r.round for r in res.metrics] == [3]


def test_tnn_column_set_only_on_smoothing_rounds():
    res = run_experiment(dataclasses.replace(
        TINY, algorithm="fedceo", rounds=4, interval=4, eval_every=2))
    by_round = {r.round: r for r in res.metrics}
    assert math.isnan(by_round[2].tnn_total)
    assert by_round[4].tnn_total >= 0.0


def test_final_stack_tnn_matches_reported_total():
    res = run_experiment(dataclasses.replace(
        TINY, algorithm="fedceo", rounds=4, interval=4, eval_every=4))
    reported = res.metrics[-1].tnn_total
    recomputed = sum(tnn(t) for t in res.final_stack)
    assert reported == pytest.approx(recomputed, rel=1e-12, abs=1e-12)


def test_eps_column_nan_only_for_plain_averaging():
    noisy = run_experiment(TINY)
    plain = run_experiment(dataclasses.replace(TINY, algorithm="fedavg"))
    assert all(not math.isnan(r.eps_p) for r in noisy.metrics)
    assert all(math.isnan(r.eps_p) for r in plain.metrics)
    assert noisy.metrics[0].eps_p == pytest.approx(noisy.budget.epsilon)


def test_final_stack_has_one_slice_per_selected_client():
    res = run_experiment(TINY)
    assert res.final_stack[0].shape[2] == TINY.k_selected
    assert res.final_model.shapes == [(5, 3, True)]


# ---------------------------------------------------------------------------
# metrics csv / run outputs


def test_metrics_csv_layout():
    rows = [MetricsRow(5, 0.5, 0.25, math.nan, 1.5),
            MetricsRow(10, 0.25, 0.5, 3.0, 1.5)]
    text = metrics_csv_text(rows)
    lines = text.splitlines()
    assert lines[0] == "round,loss,acc,tnn_total,eps_p"
    assert lines[1] == "5,0.5,0.25,,1.5"
    assert lines[2] == "10,0.25,0.5,3.0,1.5"
    assert text.endswith("\n")


def test_metrics_csv_full_precision():
    third = 1.0 / 3.0
    text = metrics_csv_text([MetricsRow(1, third, third, third, third)])
    assert repr(third) in text


def test_config_to_dict_flat_keys():
    d = config_to_dict(TINY)
    assert d["n_total"] == 6
    assert d["dp.sigma"] == 0.5
    assert d["data.source"] == "blobs"
    assert "data.path" not in d
    assert d["partition.mode"] == "iid"
    assert "partition.alpha" not in d


def test_write_run_outputs_files(tmp_path):
    res = run_experiment(TINY)
    out = tmp_path / "run"
    write_run_outputs(res, out)
    csv_path = out / "metrics.csv"
    assert csv_path.read_text() == metrics_csv_text(res.metrics)
    stored = load_tensors(out / "final_model.t3r")
    assert len(stored) == len(res.final_stack)
    for a, b in zip(stored, res.final_stack):
        assert np.array_equal(a, b)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"] == {
        k: v for k, v in config_to_dict(TINY).items()
    }
    assert set(manifest) == {"package_version", "config", "layer_shapes", "privacy"}
    assert manifest["layer_shapes"] == [[5, 3, True]]
    assert manifest["privacy"]["epsilon"] == pytest.approx(res.budget.epsilon)


def test_rerun_from_manifest_reproduces_csv(tmp_path):
    res = run_experiment(TINY)
    out = tmp_path / "run"
    write_run_outputs(res, out)
    text = config_file_text(TINY)
    again = run_experiment(parse_config_text(text))
    assert metrics_csv_text(again.metrics) == (out / "metrics.csv").read_text()


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize("kwargs,field", [
    (dict(k_selected=9), "k_selected"),
    (dict(rounds=0), "rounds"),
    (dict(lr=-0.1), "lr"),
    (dict(lambda0=0.0), "lambda0"),
    (dict(ratio=0.5), "ratio"),
    (dict(interval=0), "interval"),
    (dict(algorithm="sgd"), "algorithm"),
    (dict(eval_every=0), "eval_every"),
    (dict(seed=-1), "seed"),
    (dict(k_selected=0), "k_selected"),
])
def test_run_config_field_validation(kwargs, field):
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(TINY, **kwargs)
    assert err.value.field == field


def test_data_spec_validation_uses_dotted_fields():
    with pytest.raises(ValidationError) as err:
        DataSpec(source="file")
    assert err.value.field == "data.path"
    with pytest.raises(ValidationError) as err:
        DataSpec(partition_mode="sorted")
    assert err.value.field == "partition.mode"
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError) as err:
            DataSpec(alpha=alpha)
        assert err.value.field == "partition.alpha"
    with pytest.raises(ValidationError) as err:
        DataSpec(test_fraction=1.0)
    assert err.value.field == "data.test_fraction"


def test_model_spec_bias_defaults():
    assert ModelSpec(kind="logistic").use_bias is True
    assert ModelSpec(kind="mlp").use_bias is False
    assert ModelSpec(kind="mlp", bias=True).use_bias is True


# ---------------------------------------------------------------------------
# rng streams


def test_rng_streams_are_purpose_disjoint():
    a = rng_stream(0, round_no=1, client=2, purpose="train").random(8)
    b = rng_stream(0, round_no=1, client=2, purpose="noise").random(8)
    c = rng_stream(0, round_no=1, client=3, purpose="train").random(8)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_rng_streams_reproducible():
    a = rng_stream(5, round_no=9, client=1, purpose="noise").random(4)
    b = rng_stream(5, round_no=9, client=1, purpose="noise").random(4)
    assert np.array_equal(a, b)
