"""Parameter sweeps: grid construction, thread-flag determinism, CSV output."""

import dataclasses
import math

import numpy as np
import pytest

from config_oracle import config_file_text
from fedceo.cli import main
from fedceo.config import DataSpec, ModelSpec, RunConfig
from fedceo.dp import DpConfig
from fedceo.errors import ValidationError
from fedceo.protocol import run_experiment
from fedceo.sweep import (
    SWEEPABLE,
    SweepSpec,
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

    def no_cell(cfg, threads):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sweep_mod, "_run_cell", no_cell)
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

    real = sweep_mod._run_cell

    def sabotaged(cfg, threads):
        if cfg.dp.sigma == 1.0 and cfg.seed == 1:
            raise RuntimeError("boom")
        return real(cfg, threads)

    monkeypatch.setattr(sweep_mod, "_run_cell", sabotaged)
    with pytest.raises(RuntimeError) as err:
        sweep(tiny_spec())
    done = {(r.value, r.seed) for r in err.value.partial_rows}
    assert (1.0, 1) not in done
    assert {(0.5, 0), (0.5, 1), (1.0, 0)} <= done


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
