"""Command-line interface: subcommands, exit codes, artifact files."""

import json
import struct
import subprocess
import sys

import pytest

from fedceo import __version__
from fedceo.cli import main
from fedceo.errors import NoConvergence
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
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


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
    assert (first / "metrics.csv").read_bytes() == (threaded / "metrics.csv").read_bytes()
    assert json.loads((threaded / "run_manifest.json").read_text())["threads"] == 3


def test_run_manifest_records_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDCEO_THREADS", "2")
    _, out = do_run(tmp_path)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["threads"] == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag,env,needle", [
    ("0", None, "--threads"),
    (None, "abc", "FEDCEO_THREADS"),
    (None, "0", "FEDCEO_THREADS"),
], ids=["flag-0", "env-abc", "env-0"])
def test_bad_thread_count_exits_2(tmp_path, capsys, monkeypatch, command, flag, env, needle):
    if env is None:
        monkeypatch.delenv("FEDCEO_THREADS", raising=False)
    else:
        monkeypatch.setenv("FEDCEO_THREADS", env)
    argv = [command, "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "dp.sigma", "--values", "0.5", "--seeds", "0"]
    if flag is not None:
        argv += ["--threads", flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert needle in err


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
])
def test_run_bad_config_exits_2(tmp_path, capsys, bad_text, needle):
    cfg = write_config(tmp_path, bad_text, name="bad.cfg")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert needle in err


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


# ---------------------------------------------------------------------------
# exit code 3: numeric failures


def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    import fedceo.cli as cli_mod

    def explode(cfg):
        raise NoConvergence("iteration cap reached")

    monkeypatch.setattr(cli_mod, "run_experiment", explode)
    cfg = write_config(tmp_path)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numeric failure:" in capsys.readouterr().err


def test_diverging_run_exits_3(tmp_path, capsys):
    # Every update stays finite but its norm overflows; clipping by that
    # infinite norm would silently upload zeros.
    text = TINY_CONFIG.replace("lr = 0.1", "lr = 1e200").replace(
        "algorithm = ldp_fedavg", "algorithm = fedceo")
    code, _ = do_run(tmp_path, text=text)
    assert code == 3
    assert "diverged" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag,value", [("--samples", "1999"), ("--spread", "inf")])
def test_gen_data_bad_values_exit_2(tmp_path, capsys, flag, value):
    data_path = tmp_path / "blobs.ds"
    assert main(["gen-data", "--out", str(data_path), flag, value]) == 2
    assert flag.lstrip("-") in capsys.readouterr().err
    assert not data_path.exists()


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


def extra_layer(manifest_bytes):
    manifest = json.loads(manifest_bytes)
    manifest["layer_shapes"].append([3, 3, False])
    return json.dumps(manifest).encode()


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
], ids=["huge-dims", "short-payload", "bad-json", "not-an-object", "empty-model",
        "empty-model-no-manifest", "manifest-extra-layer", "empty-axis", "nan-payload"])
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

    real = sweep_mod._run_cell

    def sabotaged(cfg):
        if cfg.dp.sigma == 1.0 and cfg.seed == 1:
            raise NoConvergence("diverged")
        return real(cfg)

    monkeypatch.setattr(sweep_mod, "_run_cell", sabotaged)
    cfg = write_config(tmp_path)
    out = tmp_path / "sw"
    code = main(["sweep", "--config", cfg, "--axis", "dp.sigma",
                 "--values", "0.5,1.0", "--seeds", "0,1", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert "numeric failure:" in captured.err
    assert "partial rows kept" in captured.err
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "dp.sigma,seed,acc,loss,eps_p"
    assert len(lines) == 1 + 3  # cells before the failing one
    assert lines[1].startswith("0.5,0,")
    assert lines[3].startswith("1.0,0,")
