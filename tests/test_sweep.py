"""Parameter sweeps: grid construction, thread-flag determinism, CSV output."""

import dataclasses
import math

import numpy as np
import pytest

from config_oracle import config_file_text
from fedceo import protocol
from fedceo.cli import main
from fedceo.config import DataSpec, ModelSpec, RunConfig
from fedceo.data import save_dataset, synth_blobs
from fedceo.dp import DpConfig
from fedceo.errors import ValidationError
from fedceo.protocol import run_experiment
from fedceo.sweep import (
    SWEEPABLE,
    SweepResult,
    SweepRow,
    SweepSpec,
    SweepSummary,
    cell_config,
    sweep,
    sweep_csv_text,
)

TINY = RunConfig(
    n_total=6, k_selected=3, rounds=2, local_epochs=1, batch=16, lr=0.1,
    dp=DpConfig(clip_c=1.0, sigma=0.5, delta=1e-2), algorithm="ldp_fedavg",
    seed=0, eval_every=2, model=ModelSpec(kind="logistic"),
    data=DataSpec(classes=3, dim=5, samples=120),
)


def tiny_spec(**kwargs):
    args = dict(base=TINY, axis="dp.sigma", values=(0.5, 1.0), seeds=(0, 1))
    args.update(kwargs)
    return SweepSpec(**args)


# ---------------------------------------------------------------------------
# spec validation


def test_axis_must_be_sweepable():
    assert "dp.sigma" in SWEEPABLE
    assert "lr" in SWEEPABLE
    assert "seed" not in SWEEPABLE
    assert "data.dim" not in SWEEPABLE
    with pytest.raises(ValidationError):
        tiny_spec(axis="seed")
    with pytest.raises(ValidationError):
        tiny_spec(axis="data.dim")


def test_values_and_seeds_must_be_nonempty(monkeypatch):
    with pytest.raises(ValidationError):
        tiny_spec(values=())
    with pytest.raises(ValidationError):
        tiny_spec(seeds=())
    # A negative seed is RunConfig's to reject, before any cell runs.
    import fedceo.sweep as sweep_mod

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sweep_mod, "run_experiment", no_cell)
    with pytest.raises(ValidationError) as err:
        sweep(tiny_spec(seeds=(0, -1)))
    assert err.value.field == "seed"


def test_cell_config_applies_axis_and_seed():
    cfg = cell_config(tiny_spec(), 1.0, 7)
    assert cfg.dp.sigma == 1.0
    assert cfg.seed == 7
    assert cfg.rounds == TINY.rounds


def test_cell_config_converts_like_the_file_parser():
    cfg = cell_config(tiny_spec(axis="algorithm", values=("fedavg",)),
                      "fedavg", 0)
    assert cfg.algorithm == "fedavg"
    with pytest.raises(ValueError):
        cell_config(tiny_spec(), -2.0, 0)


# ---------------------------------------------------------------------------
# running


def test_single_cell_matches_direct_run():
    spec = tiny_spec(values=(1.5,), seeds=(3,))
    res = sweep(spec)
    assert len(res.rows) == 1
    row = res.rows[0]
    direct = run_experiment(dataclasses.replace(
        TINY, seed=3, dp=dataclasses.replace(TINY.dp, sigma=1.5)))
    assert row.acc == direct.metrics[-1].acc
    assert row.loss == direct.metrics[-1].loss
    assert row.eps_p == pytest.approx(direct.budget.epsilon)


def test_rows_ordered_by_value_then_seed():
    res = sweep(tiny_spec())
    assert [(r.value, r.seed) for r in res.rows] == [
        (0.5, 0), (0.5, 1), (1.0, 0), (1.0, 1)]
    assert [s.value for s in res.summaries] == [0.5, 1.0]


def test_parallel_equals_serial(tmp_path):
    config = tmp_path / "base.cfg"
    config.write_text(config_file_text(TINY))
    texts = {}
    for n in (1, 4):
        out = tmp_path / f"threads{n}"
        assert main(["sweep", "--config", str(config), "--axis", "dp.sigma",
                     "--values", "0.5,1.0", "--seeds", "0,1", "--out", str(out),
                     "--threads", str(n)]) == 0
        texts[n] = (out / "sweep.csv").read_bytes()
    assert texts[1] == texts[4]
    assert texts[1].decode() == sweep_csv_text(sweep(tiny_spec()))


def test_summaries_aggregate_rows():
    res = sweep(tiny_spec())
    for summary in res.summaries:
        accs = [r.acc for r in res.rows if r.value == summary.value]
        assert summary.mean_acc == pytest.approx(np.mean(accs))
        assert summary.std_acc == pytest.approx(np.std(accs))


def test_failure_preserves_completed_cells(monkeypatch):
    import fedceo.sweep as sweep_mod

    real = sweep_mod.run_experiment

    def sabotaged(cfg, *args, **kwargs):
        if cfg.dp.sigma == 1.0 and cfg.seed == 1:
            raise RuntimeError("boom")
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_experiment", sabotaged)
    with pytest.raises(RuntimeError) as err:
        sweep(tiny_spec())
    done = {(r.value, r.seed) for r in err.value.partial_rows}
    assert (1.0, 1) not in done
    assert {(0.5, 0), (0.5, 1), (1.0, 0)} <= done


# ---------------------------------------------------------------------------
# file-backed sweeps


def file_spec(tmp_path, **kwargs):
    path = tmp_path / "blobs.ds"
    save_dataset(path, synth_blobs(3, 5, 120, 1.0, 9))
    base = dataclasses.replace(TINY, data=DataSpec(source="file", path=str(path),
                                                   partition_mode="dirichlet"))
    return tiny_spec(base=base, **kwargs)


def count_loads(monkeypatch):
    """Wrap fedceo.protocol.load_dataset; the list gains one path per call."""
    real, paths = protocol.load_dataset, []

    def counted(path):
        paths.append(path)
        return real(path)

    monkeypatch.setattr(protocol, "load_dataset", counted)
    return paths


def oracle_sweep_csv(spec):
    """sweep.csv as it was before cells shared one load: every cell is a
    plain run_experiment of its config, which reads data.path itself."""
    rows, summaries = [], []
    for value in spec.values:
        lasts = [run_experiment(cell_config(spec, value, seed)).metrics[-1]
                 for seed in spec.seeds]
        rows += [SweepRow(value, seed, m.acc, m.loss, m.eps_p)
                 for seed, m in zip(spec.seeds, lasts)]
        accs = np.array([m.acc for m in lasts])
        summaries.append(SweepSummary(value, float(accs.mean()), float(accs.std()),
                                      float(np.mean([m.eps_p for m in lasts]))))
    return sweep_csv_text(SweepResult(spec, rows, summaries))


def test_file_backed_sweep_loads_its_data_file_once(tmp_path, monkeypatch):
    spec = file_spec(tmp_path)
    paths = count_loads(monkeypatch)
    assert len(sweep(spec).rows) == 4
    assert paths == [spec.base.data.path]


def test_blobs_sweep_builds_its_data_per_cell(monkeypatch):
    import fedceo.sweep as sweep_mod

    fulls = []
    real = sweep_mod.run_experiment

    def spy(cfg, full=None, **kwargs):
        fulls.append(full)
        return real(cfg, full, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_experiment", spy)
    sweep(tiny_spec())
    assert fulls == [None] * 4


def test_file_backed_sweep_csv_matches_per_cell_loads(tmp_path, monkeypatch):
    spec = file_spec(tmp_path, values=("0.5", "1.0"))
    paths = count_loads(monkeypatch)
    oracle = oracle_sweep_csv(spec).encode()
    assert len(paths) == 4  # the oracle re-reads the file for every cell
    config = tmp_path / "base.cfg"
    config.write_text(config_file_text(spec.base))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(config), "--axis", "dp.sigma",
                 "--values", "0.5,1.0", "--seeds", "0,1", "--out", str(out)]) == 0
    assert len(paths) == 5
    assert (out / "sweep.csv").read_bytes() == oracle


# ---------------------------------------------------------------------------
# csv


def test_csv_layout():
    text = sweep_csv_text(sweep(tiny_spec()))
    lines = text.splitlines()
    assert lines[0] == "dp.sigma,seed,acc,loss,eps_p"
    assert len(lines) == 1 + 4 + 4  # header, cells, mean/std per value
    assert lines[1].startswith("0.5,0,")
    assert lines[5].startswith("0.5,mean,")
    assert lines[6].startswith("0.5,std,")
    assert text.endswith("\n")


def test_csv_blank_cells_for_missing_numbers():
    res = sweep(tiny_spec(base=dataclasses.replace(TINY, algorithm="fedavg"),
                          axis="lr", values=(0.1,), seeds=(0,)))
    assert all(math.isnan(r.eps_p) for r in res.rows)
    lines = sweep_csv_text(res).splitlines()
    assert lines[1].endswith(",")       # eps blank on the data row
    assert lines[2].endswith(",")       # and on the mean row


def test_csv_full_precision_roundtrip():
    res = sweep(tiny_spec(values=(0.5,), seeds=(0,)))
    cell = sweep_csv_text(res).splitlines()[1].split(",")
    assert float(cell[2]) == res.rows[0].acc
    assert float(cell[3]) == res.rows[0].loss
