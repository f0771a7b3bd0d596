"""Parameter sweeps: grid construction, thread-flag and worker-count
determinism, failures on workers, CSV output."""

import contextlib
import dataclasses
import io
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("threads", [1, 2], ids=["on the caller", "on workers"])
def test_file_backed_sweep_loads_its_data_file_once(tmp_path, request, monkeypatch, threads):
    # Two threads let two forked workers run the cells; they get the data
    # through the fork, and a load on a worker raises.
    spec = file_spec(tmp_path)
    oracle = oracle_sweep_csv(spec)
    chosen = request.getfixturevalue("forked_cells") if threads > 1 else [1]
    parent, real, loads = os.getpid(), protocol.load_dataset, []

    def parent_only(path):
        if os.getpid() != parent:
            raise AssertionError("a worker loaded the data file")
        loads.append((os.getpid(), path))
        return real(path)

    monkeypatch.setattr(protocol, "load_dataset", parent_only)
    assert sweep_csv_text(sweep(spec, threads)) == oracle
    assert loads == [(parent, spec.base.data.path)]
    assert chosen == [threads]


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


# ---------------------------------------------------------------------------
# cells on worker processes


@pytest.fixture
def forked_cells(monkeypatch):
    """Let a sweep of any size run its cells on worker processes.  The list
    gains the worker count each sweep chooses, and the test fails if a
    worker is left running."""
    import fedceo.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "MIN_WORK_PER_PROCESS", 1)
    chosen, real = [], sweep_mod.process_map

    @contextlib.contextmanager
    def spy(*args):
        with real(*args) as (run, workers):
            chosen.append(workers)
            yield run, workers

    monkeypatch.setattr(sweep_mod, "process_map", spy)
    yield chosen
    assert multiprocessing.active_children() == []


def run_sweep(tmp_path, spec, threads, values="0.5,1.0", axis="dp.sigma"):
    """``fedceo sweep`` of ``spec``'s base over ``values`` and seeds 0 and 1:
    (exit code, stdout with the out directory as OUT, stderr, sweep.csv
    bytes or None)."""
    config = tmp_path / "base.cfg"
    config.write_text(config_file_text(spec.base))
    out = tmp_path / f"threads{threads}"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["sweep", "--config", str(config), "--axis", axis, "--values", values,
                     "--seeds", "0,1", "--out", str(out), "--threads", str(threads)])
    csv = out / "sweep.csv"
    return (code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(),
            csv.read_bytes() if csv.exists() else None)


@pytest.mark.parametrize("source", ["blobs", "file"])
def test_sweep_csv_is_the_same_on_any_worker_count(tmp_path, forked_cells, source):
    spec = tiny_spec() if source == "blobs" else file_spec(tmp_path)
    runs = [run_sweep(tmp_path, spec, threads) for threads in (1, 2, 3)]
    assert forked_cells == [1, 2, 3]
    assert runs[0][0] == 0 and runs[0][3] == oracle_sweep_csv(spec).encode()
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_a_numeric_failure_in_a_middle_cell_ends_as_on_one_worker(tmp_path, forked_cells):
    # Cells (1e300, 0) and (1e300, 1) diverge; the cells after them may
    # finish on a worker first, and their rows are dropped.
    runs = [run_sweep(tmp_path, tiny_spec(), threads, values="0.1,1e300,0.2", axis="lr")
            for threads in (1, 2, 3)]
    assert forked_cells == [1, 2, 3]
    code, out, err, csv = runs[0]
    assert (code, out) == (3, "sweep failed after 2 cells; partial rows kept in "
                              f"{os.path.join('OUT', 'sweep.csv')}\n")
    assert err == "numeric failure: update norm is not finite: local training diverged\n"
    assert len(csv.splitlines()) == 1 + 2
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_an_error_in_a_middle_cell_raises_as_on_one_worker(tmp_path, forked_cells,
                                                           monkeypatch):
    import fedceo.sweep as sweep_mod

    real = sweep_mod.run_experiment

    def sabotaged(cfg, *args, **kwargs):
        if cfg.dp.sigma == 1.0 and cfg.seed == 0:
            raise RuntimeError("boom")
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_experiment", sabotaged)
    csvs = []
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match="^boom$") as err:
            run_sweep(tmp_path, tiny_spec(), threads)
        assert [(r.value, r.seed) for r in err.value.partial_rows] == [("0.5", 0), ("0.5", 1)]
        csvs.append((tmp_path / f"threads{threads}" / "sweep.csv").read_bytes())
        assert multiprocessing.active_children() == []
    assert forked_cells == [1, 2]
    assert csvs[1] == csvs[0] and len(csvs[0].splitlines()) == 1 + 2


def test_a_cell_whose_worker_dies_exits_2_naming_the_cell(tmp_path, forked_cells,
                                                         monkeypatch):
    import fedceo.sweep as sweep_mod

    real, caller = sweep_mod.run_experiment, os.getpid()

    def dies(cfg, *args, **kwargs):
        if os.getpid() == caller:
            raise AssertionError("a cell ran on the caller")
        if cfg.dp.sigma == 0.5 and cfg.seed == 0:
            os._exit(1)  # as the kernel's out-of-memory killer ends a process
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_experiment", dies)
    code, out, err, csv = run_sweep(tmp_path, tiny_spec(), 2)
    assert forked_cells == [2]
    assert (code, out, csv) == (2, "", None)
    assert err == ("config error: sweep cell dp.sigma=0.5 seed=0: its worker process "
                   "ended without a result, most likely killed when the system ran out "
                   "of memory\n")


def test_a_large_thread_budget_is_capped_by_the_cells(monkeypatch, process_spy, pool_sizes):
    # 10**6 threads make one worker a cell, none started, and each cell's
    # share, 250000 threads, is capped again by its own small rounds.
    import fedceo.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "MIN_WORK_PER_PROCESS", 1)
    rows = sweep(tiny_spec(), threads=10**6).rows
    assert process_spy.sizes == [4]
    assert [threads for cfg, threads in process_spy.items] == [10**6 // 4] * 4
    assert pool_sizes == []
    assert rows == sweep(tiny_spec(), threads=1).rows



def test_a_sweep_on_the_caller_imports_no_pool_machinery():
    # Importing them costs about 15 ms, a tenth of the desk benchmark's set-up.
    code = (
        "import sys\n"
        "from fedceo.config import RunConfig\n"
        "from fedceo.sweep import SweepSpec, sweep\n"
        "sweep(SweepSpec(RunConfig(rounds=1), 'dp.sigma', (0.5,), (0, 1)))\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert child.stdout == "[]\n"
