"""Command-line interface: subcommands, exit codes, artifact files."""

import itertools
import json
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedceo import __version__, tensor
from fedceo.cli import main
from fedceo.config import DataSpec, parse_config
from fedceo.data import save_dataset, synth_blobs
from fedceo.errors import NoConvergence
from fedceo.protocol import build_dataset, run_experiment
from fedceo.sweep import SWEEPABLE
from fedceo.tensor import load_tensors, save_tensors

TINY_CONFIG = """\
n_total = 6
k_selected = 3
rounds = 2
local_epochs = 1
batch = 16
lr = 0.1
algorithm = ldp_fedavg
eval_every = 2
dp.sigma = 0.5
dp.delta = 0.01
data.classes = 3
data.dim = 5
data.samples = 120
"""


def write_config(tmp_path, text=TINY_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def do_run(tmp_path, subdir="out", text=TINY_CONFIG):
    cfg = write_config(tmp_path, text)
    out = tmp_path / subdir
    code = main(["run", "--config", cfg, "--out", str(out)])
    return code, out


# ---------------------------------------------------------------------------
# parser basics


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_exits_with_usage_error():
    assert main([]) == 2


def test_usage_error_returns_2_and_creates_nothing(tmp_path, capsys):
    # argparse reads "-1,-1" as a flag; a caller of main gets the status back.
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--axis", "dp.sigma", "--values", "-1,-1",
                 "--seeds", "0", "--out", str(out)]) == 2
    assert "--values" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fedceo", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


# ---------------------------------------------------------------------------
# run


def test_run_writes_artifacts(tmp_path, capsys):
    code, out = do_run(tmp_path)
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "final_model.t3r").exists()
    assert (out / "run_manifest.json").exists()
    stdout = capsys.readouterr().out
    assert "run complete" in stdout


def test_run_is_reproducible_across_invocations_and_threads(tmp_path):
    _, first = do_run(tmp_path, "a")
    _, second = do_run(tmp_path, "b")
    assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()

    cfg = write_config(tmp_path)
    threaded = tmp_path / "c"
    assert main(["run", "--config", cfg, "--out", str(threaded),
                 "--threads", "3"]) == 0
    for name in ("metrics.csv", "final_model.t3r", "run_manifest.json"):
        assert (first / name).read_bytes() == (threaded / name).read_bytes()


def test_threads_env_var_is_ignored(tmp_path, monkeypatch):
    import fedceo.cli as cli_mod

    received = []

    def recording(cfg, *, threads):
        received.append(threads)
        return run_experiment(cfg, threads=threads)

    monkeypatch.setattr(cli_mod, "run_experiment", recording)
    monkeypatch.setenv("FEDCEO_THREADS", "0")
    code, _ = do_run(tmp_path)
    assert code == 0
    assert received == [None]  # run_experiment's own default: every usable CPU


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag", ["0"], ids=["flag-0"])
def test_bad_thread_count_exits_2(tmp_path, capsys, command, flag):
    argv = [command, "--config", write_config(tmp_path), "--out", str(tmp_path / "out"),
            "--threads", flag]
    if command == "sweep":
        argv += ["--axis", "dp.sigma", "--values", "0.5", "--seeds", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "--threads" in err


def test_rerun_from_manifest_config_reproduces_csv(tmp_path):
    _, first = do_run(tmp_path, "a")
    manifest = json.loads((first / "run_manifest.json").read_text())

    def render(v):
        return str(v).lower() if isinstance(v, bool) else str(v)

    text = "".join(f"{k} = {render(v)}\n" for k, v in manifest["config"].items())
    cfg2 = tmp_path / "replay.cfg"
    cfg2.write_text(text)
    replay = tmp_path / "b"
    assert main(["run", "--config", str(cfg2), "--out", str(replay)]) == 0
    assert (first / "metrics.csv").read_bytes() == (replay / "metrics.csv").read_bytes()


# ---------------------------------------------------------------------------
# exit code 2: configuration problems


@pytest.mark.parametrize("bad_text,needle", [
    ("dp.sigma = -1\n", "dp.sigma"),
    ("turbo = on\n", "turbo"),
    ("lr\n", "line 1"),
    ("lr = 0.1\nlr = 0.2\n", "duplicate"),
    ("data.spread = inf\n", "data.spread"),
    ("ratio = inf\n", "ratio"),
    ("data.samples = 1999\n", "samples"),
    ("data.spread = 1e308\n", "data.spread"),
    ("smoothing.divide_threshold_by_k = true\n", "smoothing.divide_threshold_by_k"),
    ("dp.c1 = 1.0\n", "dp.c1"),  # the budget lemma's constants are not keys
    ("dp.c2 = 1.0\n", "dp.c2"),
])
def test_run_bad_config_exits_2(tmp_path, capsys, bad_text, needle):
    cfg = write_config(tmp_path, bad_text, name="bad.cfg")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert needle in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad_text,line", [  # the label-shard partition is gone
    ("partition.mode = label_shard\n",
     "partition.mode: unknown mode 'label_shard'"),
    ("partition.shards_per_client = 2\n",
     "partition.shards_per_client: unknown config key"),
])
def test_removed_partition_inputs_exit_2_with_one_line(tmp_path, capsys, bad_text, line):
    cfg = write_config(tmp_path, TINY_CONFIG + bad_text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"


@pytest.mark.parametrize("header,needle", [
    ("2 99999999999 6", "line 1: header num_classes"),
    ("99999999999 2 6", "line 2: expected 100000000000 fields"),
    ("2 1 6", "line 1: header num_classes"),
])
def test_run_bad_dataset_header_exits_2(tmp_path, capsys, header, needle):
    data_path = tmp_path / "six.ds"
    data_path.write_text(header + "\n" + "".join(f"{i % 2} 1.0 2.0\n" for i in range(6)))
    text = TINY_CONFIG + f"data.source = file\ndata.path = {data_path}\n"
    code, _ = do_run(tmp_path, text=text)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert needle in err


def test_bad_config_line_names_the_config_file(tmp_path, capsys):
    code = main(["run", "--config", write_config(tmp_path, "lr\n", name="bad.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{tmp_path / 'bad.cfg'}: line 1:" in capsys.readouterr().err


def test_bad_dataset_line_names_the_dataset_file(tmp_path, capsys):
    data_path = tmp_path / "six.ds"
    data_path.write_text("2 2 6\n" + "".join(f"{i % 2} 1.0 2.0\n" for i in range(5)) + "lr\n")
    code, _ = do_run(tmp_path, text=TINY_CONFIG + f"data.source = file\ndata.path = {data_path}\n")
    assert code == 2
    err = capsys.readouterr().err
    assert f"{data_path}: line 7:" in err
    assert "run.cfg" not in err


def test_undecodable_config_byte_exits_2_naming_the_config_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"rounds = \xff\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {path}: byte 0xff is not valid utf-8\n"


def test_undecodable_dataset_byte_exits_2_naming_the_dataset_file(tmp_path, capsys):
    data_path = tmp_path / "six.ds"
    rows = "".join(f"{i % 2} 1.0 2.0\n" for i in range(5)).encode()
    data_path.write_bytes(b"2 2 6\n" + rows + b"1 \xff 2.0\n")
    code, _ = do_run(tmp_path, text=TINY_CONFIG + f"data.source = file\ndata.path = {data_path}\n")
    assert code == 2
    assert capsys.readouterr().err == f"config error: {data_path}: byte 0xff is not valid ascii\n"


def test_run_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_run_missing_data_file_exits_2(tmp_path, capsys):
    text = TINY_CONFIG + f"data.source = file\ndata.path = {tmp_path}/no.ds\n"
    code, _ = do_run(tmp_path, text=text)
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_every_package_error_has_one_exit_code():
    from fedceo import errors

    bases = {errors.FedceoError, errors.InputError, errors.NumericFailure}
    for cls in vars(errors).values():
        if isinstance(cls, type) and issubclass(cls, errors.FedceoError) and cls not in bases:
            codes = [code for code, group in ((2, errors.InputError),
                                              (3, errors.NumericFailure))
                     if issubclass(cls, group)]
            assert len(codes) == 1, (cls, codes)


# An address-space cap makes an oversized allocation fail at once, in the
# child alone; one BLAS thread keeps its start-up well inside the cap.
CAPPED_MAIN = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from fedceo.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(argv):
    """``main(argv)`` in a child process whose address space is capped at
    2 GiB: (exit code, stderr)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv], capture_output=True,
                          text=True, env=env, timeout=300)
    return proc.returncode, proc.stderr


# Each request lies between 2^57 bytes, more than any address space, and
# 2^63 bytes, where NumPy raises ValueError instead.
@pytest.mark.parametrize("line,big", [
    ("data.samples = 120", "data.samples = 99999999999999999"),  # 8e17 bytes of labels
    ("lr = 0.1", "lr = 0.1\nmodel.kind = mlp\nmodel.hidden = 10000000000000000"),  # 6.4e17
], ids=["data.samples", "model.hidden"])
def test_allocation_failure_exits_2(tmp_path, line, big):
    cfg = write_config(tmp_path, TINY_CONFIG.replace(line, big))
    code, err = run_capped(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                            "--threads", "1"])
    assert code == 2, err
    assert err.startswith("config error:") and "Traceback" not in err, err


def test_run_mlp_past_2_63_bytes_exits_2_naming_model_hidden(tmp_path, capsys):
    # The rule fires before anything is allocated, so this runs in-process.
    text = TINY_CONFIG + "model.kind = mlp\nmodel.hidden = 1000000000000000000\n"
    code, out = do_run(tmp_path, text=text)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: model.hidden:") and "Traceback" not in err, err
    assert not out.exists()


def test_blobs_past_2_63_bytes_exit_2_naming_data_dim(tmp_path, capsys):
    code, out = do_run(tmp_path, text=TINY_CONFIG.replace("data.dim = 5",
                                                          "data.dim = 10000000000000000"))
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: data.dim:")
    assert not out.exists()
    data_path = tmp_path / "blobs.ds"
    assert main(["gen-data", "--out", str(data_path), "--dim", "10000000000000000"]) == 2
    assert capsys.readouterr().err.startswith("config error: data.dim:")
    assert not data_path.exists()


def test_batch_beyond_every_client_writes_the_largest_clients_bytes(tmp_path):
    # A minibatch holds at most one whole client, so a batch of 10**17
    # trains as a batch of the largest client does, in as little memory.
    text = TINY_CONFIG + "partition.mode = dirichlet\n"
    parts = build_dataset(parse_config(write_config(tmp_path, text)))[2]
    largest = max(p.n for p in parts)
    outputs = []
    for batch in (largest, 10**17):
        cfg = write_config(tmp_path, text.replace("batch = 16", f"batch = {batch}"))
        out = tmp_path / f"batch-{batch}"
        code, err = run_capped(["run", "--config", cfg, "--out", str(out), "--threads", "1"])
        assert code == 0, err
        outputs.append([(out / name).read_bytes() for name in ("metrics.csv", "final_model.t3r")])
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# exit code 3: numeric failures


def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    import fedceo.cli as cli_mod

    def explode(cfg, *, threads):
        raise NoConvergence("iteration cap reached")

    monkeypatch.setattr(cli_mod, "run_experiment", explode)
    cfg = write_config(tmp_path)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numeric failure:" in capsys.readouterr().err


def test_svd_failure_in_a_pool_thread_exits_3(tmp_path, capsys, monkeypatch):
    # One Fourier slice's eigendecomposition fails on a worker thread of the
    # smoothing pass.
    calls = itertools.count()
    failed_on = []
    real_eigh = np.linalg.eigh

    def flaky(a, *args, **kwargs):
        if next(calls) == 1:
            failed_on.append(threading.current_thread())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    monkeypatch.setattr(tensor, "MIN_WORK_PER_THREAD", 1)  # pool these tiny stacks
    text = TINY_CONFIG.replace("algorithm = ldp_fedavg",
                               "algorithm = fedceo\ninterval = 2")
    cfg = write_config(tmp_path, text)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--threads", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: Gram eigendecomposition failed to converge "
                          "on Fourier slice")
    assert "Traceback" not in err
    assert failed_on and failed_on[0] is not threading.main_thread()


@pytest.mark.parametrize("algorithm", ["fedavg", "ldp_fedavg", "fedceo"])
def test_diverging_run_exits_3(tmp_path, capsys, algorithm):
    # Under clipping, every update stays finite but its norm overflows, and
    # clipping by that infinite norm would silently upload zeros; under
    # fedavg, scaling the update by lr overflows.
    text = TINY_CONFIG.replace("lr = 0.1", "lr = 1e200").replace(
        "algorithm = ldp_fedavg", f"algorithm = {algorithm}")
    code, _ = do_run(tmp_path, text=text)
    assert code == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["fedavg", "ldp_fedavg", "fedceo"])
@pytest.mark.parametrize("lr,epochs", [("1e200", 1), ("1e308", 3)])
def test_diverging_run_on_threads_exits_3(tmp_path, capsys, lifted_floors, algorithm, lr,
                                          epochs):
    # Lock steps and noise on 2 threads.  At lr 1e308 the lock steps
    # themselves overflow, in the pool threads: under the caller's error
    # state there, as on the caller, so no RuntimeWarning is raised.
    text = TINY_CONFIG.replace("lr = 0.1", f"lr = {lr}").replace(
        "local_epochs = 1", f"local_epochs = {epochs}").replace(
        "algorithm = ldp_fedavg", f"algorithm = {algorithm}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "out"), "--threads", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "diverged" in err and "Traceback" not in err


def test_overflowing_smoothing_schedule_saturates(tmp_path):
    # ratio ** 2 is beyond float64: the threshold of the second pass on is
    # infinite, and each pass shrinks every singular value to 0.
    text = TINY_CONFIG.replace("algorithm = ldp_fedavg", "algorithm = fedceo").replace(
        "rounds = 2", "rounds = 3").replace("eval_every = 2", "eval_every = 1")
    text += "interval = 1\nratio = 1e300\n"
    code, out = do_run(tmp_path, text=text)
    assert code == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[3]) for row in rows] == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_then_run_from_file(tmp_path):
    data_path = tmp_path / "blobs.ds"
    assert main(["gen-data", "--out", str(data_path), "--classes", "3",
                 "--dim", "5", "--samples", "90", "--seed", "1"]) == 0
    assert data_path.exists()
    text = TINY_CONFIG + f"data.source = file\ndata.path = {data_path}\n"
    code, out = do_run(tmp_path, text=text)
    assert code == 0
    assert (out / "metrics.csv").exists()


def test_gen_data_defaults_are_the_data_spec_defaults(tmp_path):
    # Seed 0 stands in for DataSpec's "the run seed", which gen-data has not.
    assert main(["gen-data", "--out", str(tmp_path / "cli.ds")]) == 0
    spec = DataSpec()
    save_dataset(tmp_path / "spec.ds",
                 synth_blobs(spec.classes, spec.dim, spec.samples, spec.spread, 0))
    assert (tmp_path / "cli.ds").read_bytes() == (tmp_path / "spec.ds").read_bytes()


def test_data_file_that_cannot_be_split_names_data_path(tmp_path, capsys):
    # One sample per class leaves the test split empty; a data file has no
    # data.samples key to blame.
    data_path = tmp_path / "blobs.ds"
    assert main(["gen-data", "--out", str(data_path), "--classes", "10",
                 "--samples", "10"]) == 0
    text = "".join(line + "\n" for line in TINY_CONFIG.splitlines()
                   if not line.startswith("data."))
    text += f"data.source = file\ndata.path = {data_path}\n"
    code, out = do_run(tmp_path, text=text)
    assert code == 2
    assert capsys.readouterr().err == ("config error: data.path: no class has two "
                                       "samples, so the test split would be empty\n")
    assert not out.exists()


def test_a_default_gen_data_imports_no_pool_machinery(tmp_path):
    # A default file, 40,000 values, is formatted on the caller on any host.
    code = (
        "import contextlib, io, sys\n"
        "from fedceo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['gen-data', '--out', {str(tmp_path / 'blobs.ds')!r}]) == 0\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert child.stdout == "[]\n"


CALLER = os.getpid()


def dies_on_a_worker(chunk):
    if os.getpid() == CALLER:
        raise AssertionError("a chunk ran on the caller")
    os._exit(1)  # as the kernel's out-of-memory killer ends a process


def test_a_gen_data_whose_worker_dies_exits_2_and_keeps_the_old_file(
        tmp_path, capsys, forked_chunks, monkeypatch):
    import fedceo.data as data_mod

    monkeypatch.setattr(data_mod, "_format_rows", dies_on_a_worker)
    monkeypatch.setattr(data_mod, "usable_cpus", lambda: 2)  # two workers on any host
    data_path = tmp_path / "blobs.ds"
    data_path.write_bytes(b"old\n")
    assert main(["gen-data", "--out", str(data_path)]) == 2
    assert forked_chunks == [2]
    assert capsys.readouterr() == ("", f"config error: {data_path}: its worker process "
                                       "ended without a result, most likely killed when "
                                       "the system ran out of memory\n")
    assert data_path.read_bytes() == b"old\n"
    assert sorted(os.listdir(tmp_path)) == ["blobs.ds"]


@pytest.mark.parametrize("flag,value", [("--samples", "1999"), ("--spread", "inf"),
                                        ("--seed", "-1"), ("--classes", "1"),
                                        ("--spread", "1e308")])
def test_gen_data_bad_values_exit_2(tmp_path, capsys, flag, value):
    # Each flag obeys the rule of the data.* key it names, and a spread that
    # overflows a sample is rejected before the file is written.
    data_path = tmp_path / "blobs.ds"
    assert main(["gen-data", "--out", str(data_path), flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"config error: data.{flag[2:]}:")
    assert not data_path.exists()


# ---------------------------------------------------------------------------
# output paths through a regular file


def _path_cases(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    cfg = write_config(tmp_path)
    code, run_dir = do_run(tmp_path, subdir="done")
    assert code == 0
    sweep = ["sweep", "--config", cfg, "--axis", "dp.sigma", "--values", "0.5",
             "--seeds", "0", "--out"]
    return {
        "run": ["run", "--config", cfg, "--out", str(blocker)],
        "run-sub": ["run", "--config", cfg, "--out", str(blocker / "sub")],
        "analyze": ["analyze", "--run", str(run_dir), "--out", str(blocker)],
        "sweep": sweep + [str(blocker)],
        "run-empty": ["run", "--config", cfg, "--out", ""],
        "sweep-empty": sweep + [""],
        "gen-data": ["gen-data", "--out", str(blocker / "x.ds")],
    }


@pytest.mark.parametrize("case", ["run", "run-sub", "analyze", "sweep", "gen-data"])
def test_out_path_through_a_file_exits_2(tmp_path, capsys, case):
    argv = _path_cases(tmp_path)[case]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert str(tmp_path / "file") in err


@pytest.mark.parametrize("case,needle", [
    pytest.param(case, needle, id=case) for case, needle in [
        ("run", "not a directory"), ("run-sub", "not a directory"), ("sweep", "not a directory"),
        ("run-empty", "--out: must not be empty"), ("sweep-empty", "--out: must not be empty"),
    ]
])
def test_out_path_is_checked_before_training(tmp_path, capsys, monkeypatch, case, needle):
    import fedceo.cli as cli_mod
    import fedceo.sweep as sweep_mod

    def no_training(*args, **kwargs):
        raise AssertionError("training ran before --out was checked")

    argv = _path_cases(tmp_path)[case]
    monkeypatch.setattr(cli_mod, "run_experiment", no_training)
    monkeypatch.setattr(sweep_mod, "run_experiment", no_training)
    capsys.readouterr()
    assert main(argv) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,field", [("--values", "-1", "dp.sigma"),
                                              ("--seeds", "-1", "seed")])
def test_sweep_bad_cell_exits_2_and_leaves_no_directory(tmp_path, capsys, flag, value,
                                                        field):
    args = {"--values": "0.5", "--seeds": "0", flag: value}
    out = tmp_path / "sw"
    argv = ["sweep", "--config", write_config(tmp_path), "--axis", "dp.sigma",
            "--out", str(out)] + [x for kv in args.items() for x in kv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing", "malformed"])
def test_sweep_bad_data_file_exits_2_before_any_cell(tmp_path, capsys, monkeypatch, case):
    import fedceo.sweep as sweep_mod

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sweep_mod, "run_experiment", no_cell)
    data_path = tmp_path / "six.ds"
    if case == "malformed":
        data_path.write_text("2 2 6\n" + "".join(f"{i % 2} 1.0 2.0\n" for i in range(5))
                             + "lr\n")
    cfg = write_config(tmp_path, TINY_CONFIG + f"data.source = file\ndata.path = {data_path}\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--axis", "dp.sigma", "--values", "0.5,1.0",
                 "--seeds", "0,1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert str(data_path) in err
    if case == "malformed":
        assert f"{data_path}: line 7:" in err
    assert not out.exists()


def test_sweep_bad_value_fails_before_the_data_file_is_read(tmp_path, capsys, monkeypatch):
    import fedceo.protocol as protocol_mod

    def no_load(path):
        raise AssertionError("the data file was read")

    monkeypatch.setattr(protocol_mod, "load_dataset", no_load)
    text = TINY_CONFIG + f"data.source = file\ndata.path = {tmp_path}/blobs.ds\n"
    out = tmp_path / "sw"
    assert main(["sweep", "--config", write_config(tmp_path, text), "--axis", "dp.sigma",
                 "--values=0.5,-1", "--seeds", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: dp.sigma:")
    assert not out.exists()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_writes_diagnostics(tmp_path, capsys):
    _, out = do_run(tmp_path)
    assert main(["analyze", "--run", str(out)]) == 0
    assert (out / "heatmap.csv").exists()
    assert (out / "spectra.csv").exists()
    report = json.loads((out / "attack_report.json").read_text())
    assert report["noiseless_cosine"] >= 0.999
    assert [e["sigma"] for e in report["per_sigma"]] == [0.0, 0.5, 1.0, 2.0]
    assert report["trials_per_sigma"] == 20
    stdout = capsys.readouterr().out
    assert "attack noiseless cosine" in stdout

    heat_lines = (out / "heatmap.csv").read_text().splitlines()
    assert heat_lines[0] == "class,client0,client1,client2"
    assert len(heat_lines) == 1 + 3  # three classes
    spectra_lines = (out / "spectra.csv").read_text().splitlines()
    assert spectra_lines[0] == "tensor,slice,index,value"
    assert len(spectra_lines) == 1 + 3 * 3 + 3 * 1  # (5, 3, 3) weight, (1, 3, 3) bias
    for line in spectra_lines[1:]:
        assert float(line.split(",")[3]) >= 0.0


def test_analyze_overflowing_weights_exit_3(tmp_path, capsys):
    _, run_dir = do_run(tmp_path)
    path = run_dir / "final_model.t3r"
    tensors = load_tensors(path)
    tensors[0][0, 0, 0] = 1e300
    save_tensors(path, tensors)
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_dir)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")
    assert not (run_dir / "heatmap.csv").exists()


def test_analyze_svd_failure_exits_3(tmp_path, capsys, monkeypatch):
    _, run_dir = do_run(tmp_path)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: SVD failed to converge on a Fourier slice"), err
    assert not (run_dir / "heatmap.csv").exists()


def test_analyze_separate_out_dir(tmp_path):
    _, run_dir = do_run(tmp_path)
    out = tmp_path / "diag"
    assert main(["analyze", "--run", str(run_dir), "--out", str(out)]) == 0
    assert (out / "heatmap.csv").exists()
    assert not (run_dir / "heatmap.csv").exists()


def test_analyze_missing_run_dir_exits_2(tmp_path, capsys):
    code = main(["analyze", "--run", str(tmp_path / "nowhere")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


# A header claiming 2**32 - 1 along every axis, and one claiming 64**3
# values with one present; neither size is ever allocated.
HUGE_HEADER = struct.pack("<4sIII", b"T3R1", 2**32 - 1, 2**32 - 1, 2**32 - 1)
SHORT_HEADER = struct.pack("<4sIII", b"T3R1", 64, 64, 64)
EMPTY_AXIS = struct.pack("<4sIII", b"T3R1", 0, 3, 3)
NAN_PAYLOAD = struct.pack("<4sIIId", b"T3R1", 1, 1, 1, float("nan"))


def edit_manifest(change):
    """An edit of a manifest's bytes that applies ``change`` to its dict."""
    def edit(manifest_bytes):
        manifest = json.loads(manifest_bytes)
        change(manifest)
        return json.dumps(manifest).encode()
    return edit


def set_seed(seed):
    return edit_manifest(lambda manifest: manifest["config"].update(seed=seed))


extra_layer = edit_manifest(lambda manifest: manifest["layer_shapes"].append([3, 3, False]))
bad_layer = edit_manifest(lambda manifest: manifest["layer_shapes"].append([3, "3", False]))


# Each case maps artifacts to their new bytes, to a function of their old
# bytes, or to None to delete them.
@pytest.mark.parametrize("edits,needle", [
    ({"final_model.t3r": HUGE_HEADER + bytes(8)}, "tensor header"),
    ({"final_model.t3r": SHORT_HEADER + bytes(8)}, "tensor header"),
    ({"run_manifest.json": b"{not json"}, "run_manifest.json"),
    ({"run_manifest.json": b"[]"}, "run_manifest.json"),
    ({"final_model.t3r": b""}, "final_model.t3r"),
    ({"final_model.t3r": b"", "run_manifest.json": None}, "final_model.t3r"),
    ({"run_manifest.json": extra_layer}, "layer_shapes"),
    ({"final_model.t3r": EMPTY_AXIS, "run_manifest.json": None}, "empty axis"),
    ({"final_model.t3r": NAN_PAYLOAD, "run_manifest.json": None},
     "final_model.t3r: stored tensor contains NaN"),
    ({"run_manifest.json": None}, "run_manifest.json"),
    ({"run_manifest.json": set_seed(-1)}, "run_manifest.json: bad config.seed"),
    ({"run_manifest.json": set_seed(True)}, "run_manifest.json: bad config.seed"),
    ({"run_manifest.json": set_seed("0")}, "run_manifest.json: bad config.seed"),
    ({"run_manifest.json": bad_layer}, "run_manifest.json: bad config.seed or layer_shapes"),
], ids=["huge-dims", "short-payload", "bad-json", "not-an-object", "empty-model",
        "empty-model-no-manifest", "manifest-extra-layer", "empty-axis", "nan-payload",
        "no-manifest", "negative-seed", "bool-seed", "string-seed", "malformed-layer"])
def test_analyze_corrupt_artifact_exits_2(tmp_path, capsys, edits, needle):
    _, run_dir = do_run(tmp_path)
    for name, new in edits.items():
        path = run_dir / name
        if new is None:
            path.unlink()
        else:
            path.write_bytes(new(path.read_bytes()) if callable(new) else new)
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert needle in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "sw"
    code = main(["sweep", "--config", cfg, "--axis", "dp.sigma",
                 "--values", "0.5,1.0", "--seeds", "0,1", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "dp.sigma,seed,acc,loss,eps_p"
    assert len(lines) == 1 + 4 + 4
    stdout = capsys.readouterr().out
    assert "dp.sigma=0.5" in stdout


def test_sweep_bad_axis_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["sweep", "--config", cfg, "--axis", "seed",
                 "--values", "1,2", "--seeds", "0", "--out", str(tmp_path / "sw")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["dp.c1", "dp.c2"])
def test_sweep_over_a_budget_lemma_constant_exits_2(tmp_path, capsys, axis):
    code = main(["sweep", "--config", write_config(tmp_path), "--axis", axis,
                 "--values", "1.0", "--seeds", "0", "--out", str(tmp_path / "sw")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {axis}: not a sweepable config field")
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("axis", SWEEPABLE)
def test_sweep_value_that_does_not_convert_exits_2_naming_the_axis(tmp_path, capsys, axis):
    value = "fedsgd" if axis == "algorithm" else "abc"
    code = main(["sweep", "--config", write_config(tmp_path), "--axis", axis,
                 "--values", value, "--seeds", "0", "--out", str(tmp_path / "sw")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert axis in err


def test_sweep_non_integer_seeds_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["sweep", "--config", cfg, "--axis", "dp.sigma",
                 "--values", "0.5", "--seeds", "zero", "--out", str(tmp_path / "sw")])
    assert code == 2
    assert "seeds" in capsys.readouterr().err


def test_sweep_failure_keeps_partial_rows(tmp_path, capsys, monkeypatch):
    import fedceo.sweep as sweep_mod

    real = sweep_mod.run_experiment

    def sabotaged(cfg, *args, **kwargs):
        if cfg.dp.sigma == 1.0 and cfg.seed == 1:
            raise NoConvergence("diverged")
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_experiment", sabotaged)
    cfg = write_config(tmp_path)
    out = tmp_path / "sw"
    code = main(["sweep", "--config", cfg, "--axis", "dp.sigma",
                 "--values", "0.5,1.0", "--seeds", "0,1", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure:")
    assert "partial rows kept" in captured.out
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "dp.sigma,seed,acc,loss,eps_p"
    assert len(lines) == 1 + 3  # cells before the failing one
    assert lines[1].startswith("0.5,0,")
    assert lines[3].startswith("1.0,0,")


# ---------------------------------------------------------------------------
# interrupts and closed pipes


# Cells and runs of seed 1, and every chunk of a dataset file, mark that
# they started and then wait, so the test can interrupt them mid-flight.
# gen-data gets two CPUs on any host.  A shell starts a background job with
# SIGINT ignored, and a child inherits that, so the child restores Python's
# handler, which an interactive session has.
INTERRUPTED_MAIN = """\
import signal, sys, time
from pathlib import Path
from fedceo import cli, data, sweep
signal.signal(signal.SIGINT, signal.default_int_handler)
started, floor, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
sweep.MIN_WORK_PER_PROCESS = data.MIN_VALUES_PER_PROCESS = floor
real = sweep.run_experiment

def waiting(cfg, *args, **kwargs):
    if cfg.seed == 1:
        started.touch()
        time.sleep(60)
    return real(cfg, *args, **kwargs)

def waiting_rows(chunk):
    started.touch()
    time.sleep(60)

cli.run_experiment = sweep.run_experiment = waiting
data._format_rows = waiting_rows
data.usable_cpus = lambda: 2
sys.exit(cli.main(argv))
"""


def interrupted(tmp_path, floor, argv):
    """Run ``main(argv)`` in a child and send SIGINT to its process group,
    as a terminal's Ctrl-C does, once a seed-1 run has started and while it
    waits out a minute: (exit code, stdout, stderr).  The child must end
    well before that minute is up, and leave no process of its group
    running."""
    started = tmp_path / "started"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTED_MAIN, str(started),
                             str(floor), *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 120
        while not started.exists():
            assert proc.poll() is None and time.monotonic() < deadline, proc.communicate()
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        sent = time.monotonic()
        out, err = proc.communicate(timeout=120)
        assert time.monotonic() - sent < 10
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        proc.kill()
    return proc.returncode, out, err


def test_an_interrupted_run_exits_130_with_one_line(tmp_path):
    cfg = write_config(tmp_path, TINY_CONFIG + "seed = 1\n")
    code, out, err = interrupted(tmp_path, 1, ["run", "--config", cfg,
                                               "--out", str(tmp_path / "out")])
    assert (code, out, err) == (130, "", "interrupted\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("floor", [10**18, 1], ids=["on the caller", "on workers"])
def test_an_interrupted_sweep_exits_130_and_keeps_the_rows_before_it(tmp_path, floor):
    cfg = write_config(tmp_path)
    sweep_argv = ["sweep", "--config", cfg, "--axis", "dp.sigma", "--values", "0.5,1.0"]
    code, out, err = interrupted(tmp_path, floor, sweep_argv + [
        "--seeds", "0,1", "--out", str(tmp_path / "sw"), "--threads", "2"])
    assert (code, err) == (130, "interrupted\n")
    assert main(sweep_argv + ["--seeds", "0", "--out", str(tmp_path / "first")]) == 0
    first = (tmp_path / "first" / "sweep.csv").read_text().splitlines()[:2]
    kept = tmp_path / "sw" / "sweep.csv"
    # The interrupt lands in cell (0.5, 1).  On the caller, cell (0.5, 0) has
    # finished by then; a worker may not have sent its row back yet.
    if floor > 1 or kept.exists():
        assert kept.read_text().splitlines() == first


def test_an_interrupted_gen_data_on_workers_exits_130_and_keeps_the_old_file(tmp_path):
    data_path = tmp_path / "blobs.ds"
    data_path.write_bytes(b"old\n")
    code, out, err = interrupted(tmp_path, 1, ["gen-data", "--out", str(data_path)])
    assert (code, out, err) == (130, "", "interrupted\n")
    assert data_path.read_bytes() == b"old\n"
    assert sorted(os.listdir(tmp_path)) == ["blobs.ds", "started"]


# NumPy's import is the slow part of starting the command line; an import
# finder stands in for a Ctrl-C that lands while it runs.
INTERRUPTED_IMPORT = """\
import runpy, sys

class InterruptNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            raise KeyboardInterrupt
        return None

sys.meta_path.insert(0, InterruptNumpy())
runpy.run_module("fedceo", run_name="__main__")
"""


def test_an_interrupt_while_numpy_loads_exits_130_with_one_line():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", INTERRUPTED_IMPORT, "--version"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "interrupted\n")


def test_a_closed_stdout_exits_141_quietly(tmp_path):
    read, write = os.pipe()
    os.close(read)
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        proc = subprocess.run([sys.executable, "-m", "fedceo", "gen-data", "--out",
                               str(tmp_path / "blobs.ds"), "--samples", "60"],
                              stdout=write, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=str(src)))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")
