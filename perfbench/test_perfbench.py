"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The schedule-count tests trace one real iteration and compare the traced
counts with counts derived from the workload config, so a wrapper that
misses calls, or a workload that drifts from its stated size, fails here.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics  # noqa: E402


def _originals():
    sites = [(m, a) for m, a, _, _ in tracer.SITES] + [(m, a) for m, a, _ in tracer.COUNTED]
    return {(m, a): getattr(importlib.import_module(m), a) for m, a in sites}


def _traced_iteration(workload, tmp_path):
    before = _originals()
    tr = Tracer()
    wl = workloads.WORKLOADS[workload](0, tmp_path)
    iter_dir = tmp_path / "iter"
    iter_dir.mkdir()
    betweens = []
    with tr.installed():
        outcomes = wl.iterate(iter_dir, tr.span, lambda: betweens.append(None))
    assert _originals() == before, "a wrapper was left installed"
    assert [o.error for o in outcomes] == [None] * len(outcomes)
    # run.py samples the speed probe through this hook after each operation.
    assert len(betweens) == len(outcomes)
    return {k: v for k, (v, _) in layer_metrics(tr.spans, tr.counts()).items()}


def _steps_per_epoch(cfg):
    train = cfg.data.samples - round(cfg.data.samples * cfg.data.test_fraction)
    return math.ceil(train // cfg.n_total / cfg.batch)


def test_desk_schedule_counts(tmp_path):
    cfg = workloads.DESK
    m = _traced_iteration("desk", tmp_path)
    runs = 3
    calls = runs * cfg.rounds * cfg.k_selected
    assert calls == 900
    assert m["models.local_train.calls"] == calls
    steps = calls * cfg.local_epochs * _steps_per_epoch(cfg)
    assert steps == 135_000
    assert m["models.sgd_steps"] == steps
    assert m["protocol.rounds"] == runs * cfg.rounds
    # fedceo smooths once (interval = rounds) one bias-free logistic stack.
    assert m["tensor.truncated_tsvd.calls"] == 1
    assert m["tensor.tnn.calls"] == 1
    assert m["tensor.svd_slices"] == (cfg.k_selected // 2 + 1) + cfg.k_selected
    # ldp_fedavg and fedceo clip and noise every upload; fedavg does not.
    params = cfg.data.dim * cfg.data.classes
    assert m["dp.noise_draws"] == 2 * cfg.rounds * cfg.k_selected * params


def test_stress_schedule_counts(tmp_path):
    cfg = workloads.STRESS
    m = _traced_iteration("stress", tmp_path)
    passes, stacks = cfg.rounds // cfg.interval, 2  # the MLP has no bias
    assert m["tensor.truncated_tsvd.calls"] == passes * stacks == 8
    assert m["tensor.tnn.calls"] == passes * stacks
    k = cfg.k_selected
    assert m["tensor.svd_slices"] == passes * stacks * ((k // 2 + 1) + k)
    assert m["models.local_train.calls"] == cfg.rounds * k
    assert m["models.sgd_steps"] == cfg.rounds * k * _steps_per_epoch(cfg)
    width = cfg.model.hidden
    stack_bytes = (cfg.data.dim * width + width * cfg.data.classes) * k * 8
    assert m["tensor.stack_mb"] == pytest.approx(stack_bytes / tracer.MB)


def test_cli_session_counts(tmp_path):
    m = _traced_iteration("cli", tmp_path)
    assert m["sweep.cells"] == 4
    # the run and every sweep cell parse the dataset file again
    assert m["data.load_dataset.mb"] == pytest.approx(
        5 * (tmp_path / "setup.ds").stat().st_size / tracer.MB, rel=0.01)
    assert m["tensor.load_tensors.mb"] == m["tensor.save_tensors.mb"] > 0
    assert m["protocol.rounds"] == workloads.Cli.rounds
    assert m["data.client_size.min"] < m["data.client_size.max"]


def test_wrappers_restored_after_error():
    before = _originals()
    tr = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr.installed():
            assert _originals() != before
            workloads.protocol.select_clients(1, 1, 1, 0)
            1 / 0
    assert _originals() == before
    assert [s.name for s in tr.spans] == ["dp.rng_stream", "protocol.select_clients"]


def test_self_time_and_rounds_from_spans():
    spans = [
        Span(0, 1, None, "protocol.run_experiment", 0.0, 10.0, None),
        Span(0, 2, 1, "protocol.select_clients", 1.0, 1.5, None),
        Span(0, 3, 1, "models.local_train", 1.5, 4.0, None),
        Span(0, 4, 1, "models.local_train", 3.0, 5.0, None),  # overlaps the one before
        Span(0, 5, 1, "protocol.select_clients", 6.0, 6.5, None),
        Span(0, 6, 1, "tensor.truncated_tsvd", 7.0, 9.0, {"slices": 3, "bytes": 2 ** 20}),
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans, {}).items()}
    # run_experiment covers 10 s; children cover [1, 5] and [6, 6.5] and [7, 9].
    assert m["protocol.self_s"] == pytest.approx(10 - 4 - 0.5 - 2 + 0.5 + 0.5)
    assert m["protocol.rounds"] == 2
    assert m["protocol.smooth_round.s_p50"] == pytest.approx(4.0)
    assert m["protocol.round.s_p90"] == pytest.approx(5.0)
    assert m["tensor.stack_mb"] == pytest.approx(1.0)


def test_sweep_cells_from_spans():
    spans = [
        Span(0, 1, None, "sweep.sweep", 0.0, 10.0, None),
        Span(0, 2, 1, "sweep.cell_config", 0.0, 0.5, None),
        Span(0, 3, 1, "sweep.cell_config", 0.5, 1.0, None),
        Span(0, 4, 1, "protocol.run_experiment", 1.0, 5.0, None),  # worker 1
        Span(0, 5, 1, "protocol.run_experiment", 1.5, 4.0, None),  # worker 2
        Span(0, 6, 1, "protocol.run_experiment", 5.0, 8.0, None),  # waited for worker 1
        Span(0, 7, None, "protocol.run_experiment", 10.0, 12.0, None),  # not a sweep cell
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans, {}).items()}
    assert m["sweep.cells"] == 3
    assert m["sweep.cell.s_p50"] == pytest.approx(3.0)
    assert m["sweep.pool_wait.s"] == pytest.approx(0.0 + 0.5 + 4.0)


def test_reference_check_uses_tolerance():
    want = [{"round": 60, "loss": 2.0, "acc": 0.5, "tnn_total": None, "eps_p": 0.5}]
    near = dict(want[0], loss=2.0 * (1 + 1e-9), acc=0.502)
    far = dict(want[0], loss=2.0 * (1 + 1e-5))
    check = workloads.reference_mismatch
    assert check(workloads.Outcome("ldp_fedavg", [near], None, None), want) is None
    assert "loss" in check(workloads.Outcome("ldp_fedavg", [far], None, None), want)
    assert "tnn_total" in check(
        workloads.Outcome("ldp_fedavg", [dict(want[0], tnn_total=1.0)], None, None), want)
    assert check(workloads.Outcome("fedceo", [], None, None), None) is not None


def test_every_seed_slot_has_a_reference():
    reference = workloads.load_reference()
    for name in workloads.WORKLOADS:
        assert sorted(map(int, reference[name])) == list(range(workloads.SEED_SLOTS))
