"""Exit-code contract of ``fedceo.cli.main`` under generated inputs.

Whatever value a config key or a gen-data flag takes, and however a
finished run's artifacts are truncated or bit-flipped, the command exits 0,
2 (an input error whose message names the offending key or file) or 3 (a
numeric failure), and no exception escapes.  Examples are derandomized, so every run of the suite
checks the same inputs.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fedceo.cli import main
from fedceo.config import _SCHEMA, ALGORITHMS, _to_bool
from fedceo.data import load_dataset
from fedceo.sweep import SWEEPABLE

BASE = {
    "n_total": "6",
    "k_selected": "3",
    "rounds": "2",
    "local_epochs": "1",
    "batch": "16",
    "algorithm": "fedceo",
    "interval": "1",
    "eval_every": "2",
    "dp.sigma": "0.5",
    "dp.delta": "0.01",
    "data.classes": "3",
    "data.dim": "5",
    "data.samples": "120",
}

FLOATS = ("-1", "0", "1e-300", "0.5", "2", "1e200", "inf", "-inf", "nan")

# Every size stays small, so no example can allocate much memory or train
# for long: ints up to 64, data.samples up to 400, and at most 3 rounds of
# 2 local epochs.
INT_BOUNDS = {"rounds": 3, "local_epochs": 2, "data.samples": 400}
WORDS = {
    "algorithm": ALGORITHMS + ("fedsgd",),
    "model.kind": ("logistic", "mlp", "cnn"),
    "data.source": ("blobs", "file", "csv"),
    "partition.mode": ("iid", "label_shard", "dirichlet", "random"),
    "data.path": ("no-such-file.ds",),
}


def value_strategy(key):
    convert = _SCHEMA[key][2]
    if convert is int:
        return st.integers(-2, INT_BOUNDS.get(key, 64)).map(str)
    if convert is float:
        return st.sampled_from(FLOATS)
    if convert is _to_bool:
        return st.sampled_from(("true", "false", "maybe"))
    return st.sampled_from(WORDS[key])


overrides = st.lists(st.sampled_from(sorted(_SCHEMA)), unique=True, max_size=5).flatmap(
    lambda keys: st.fixed_dictionaries({key: value_strategy(key) for key in keys})
)


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_contract(code, err, names):
    event(f"exit {code}")
    assert code in (0, 2, 3), err
    if code == 2:
        assert err.startswith("config error:")
        assert any(name in err for name in names), err
    if code == 3:
        assert err.startswith("numeric failure:")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(overrides)
@example({"lr": "1e200"})
@example({"data.classes": "7"})
@example({"n_total": "28", "data.samples": "33"})
@example({"data.samples": "3"})
@example({"data.seed": "-1"})
@example({"algorithm": "fedavg", "lr": "1e200"})
@example({"lr": "1e200", "model.bias": "true", "eval_every": "1", "data.spread": "1e200"})
@example({"data.spread": "1e200", "data.test_fraction": "1e-300"})
@example({"algorithm": "fedavg", "eval_every": "1", "data.spread": "1e200"})
@example({"partition.mode": "dirichlet", "partition.alpha": "inf"})
@example({"dp.sigma": "1e-320"})
@example({"model.kind": "mlp", "model.hidden": "1000000000000000000"})
@example({"rounds": "1" + "0" * 400})
@example({"partition.mode": "label_shard", "partition.shards_per_client": "1000000"})
def test_any_config_value_keeps_the_exit_code_contract(values):
    config = {**BASE, **values}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in config.items())
        code, err = run_cli(["run", "--config", path, "--out", os.path.join(tmp, "out")])
        if code == 0:
            load_finite_json(os.path.join(tmp, "out", "run_manifest.json"))
    check_contract(code, err, [*config, "run.cfg", *WORDS["data.path"]])


gen_data_flags = st.fixed_dictionaries({
    flag: value_strategy(f"data.{flag}")
    for flag in ("classes", "dim", "samples", "spread", "seed")
})


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(gen_data_flags)
@example({"classes": "3", "dim": "2", "samples": "30", "spread": "1e308", "seed": "0"})
@example({"classes": "3", "dim": "2", "samples": "30", "spread": "1", "seed": "-1"})
@example({"classes": "1", "dim": "2", "samples": "30", "spread": "1", "seed": "0"})
@example({"classes": "2", "dim": "1000000000000000000", "samples": "2", "spread": "1",
          "seed": "0"})
def test_any_gen_data_flags_keep_the_exit_code_contract(flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "blobs.ds")
        code, err = run_cli(["gen-data", "--out", path,
                             *(f"--{flag}={value}" for flag, value in flags.items())])
        check_contract(code, err, [f"data.{flag}" for flag in flags])
        assert code in (0, 2), err
        if code == 0:
            data = load_dataset(path)
            assert data.features.shape == (int(flags["samples"]), int(flags["dim"]))
        else:
            assert not os.path.exists(path)


# Sweepable keys, plus an unknown key and keys that exist but do not sweep.
SWEEP_AXES = SWEEPABLE + ("turbo", "seed", "model.kind", "data.samples")
ODD_VALUES = st.sampled_from(("abc", "", " ", "-1", "1e200"))


# Good values and seeds come twice as often as odd ones, so that some
# sweeps get to run.
def sweep_value(axis):
    if axis not in _SCHEMA:
        return ODD_VALUES
    return st.one_of(value_strategy(axis), value_strategy(axis), ODD_VALUES)


good_seed = st.integers(0, 3).map(str)
seeds = st.one_of(good_seed, good_seed, st.sampled_from(("-1", "0.5", "x", "")))
sweep_args = st.sampled_from(SWEEP_AXES).flatmap(lambda axis: st.fixed_dictionaries({
    "axis": st.just(axis),
    "values": st.lists(sweep_value(axis), min_size=1, max_size=3),
    "seeds": st.lists(seeds, min_size=1, max_size=2),
    "out": st.sampled_from(("fresh", "dir", "file", "file/sub")),
}))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(sweep_args)
@example({"axis": "dp.sigma", "values": ["0.5", "2"], "seeds": ["0", "1"], "out": "fresh"})
@example({"axis": "lr", "values": ["1e200"], "seeds": ["0"], "out": "dir"})
@example({"axis": "dp.sigma", "values": ["0.5"], "seeds": ["-1"], "out": "fresh"})
@example({"axis": "algorithm", "values": ["fedavg", "fedavg", ""], "seeds": ["2"], "out": "dir"})
@example({"axis": "rounds", "values": ["2"], "seeds": ["0"], "out": "file/sub"})
# An Arabic-Indic two: int() reads it, but sweep.csv is ASCII.
@example({"axis": "rounds", "values": ["\u0662"], "seeds": ["0"], "out": "fresh"})
# The second cell diverges after the first wrote its row.
@example({"axis": "lr", "values": ["0.1", "1e200"], "seeds": ["0"], "out": "fresh"})
def test_any_sweep_keeps_the_exit_code_contract(args):
    """Exit 0, 2 or 3; exit 2 makes no directory; exit 0 writes one row
    per cell and two per value."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "base.cfg")
        with open(config, "w", encoding="ascii") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in BASE.items())
        blocker = os.path.join(tmp, "file")
        with open(blocker, "w", encoding="ascii") as fh:
            fh.write("not a directory\n")
        out = os.path.join(tmp, "sw" if args["out"] in ("fresh", "dir") else args["out"])
        if args["out"] == "dir":
            os.mkdir(out)
        before = sorted(os.listdir(tmp))
        # --flag=value, so that argparse does not read "-1,2" as a flag.
        code, err = run_cli(["sweep", "--config", config, f"--axis={args['axis']}",
                             f"--values={','.join(args['values'])}",
                             f"--seeds={','.join(args['seeds'])}", "--out", out])
        check_contract(code, err, [args["axis"], "k_selected", "values", "seed", blocker])
        if code == 2:
            assert sorted(os.listdir(tmp)) == before
            assert not (os.path.isdir(out) and os.listdir(out))
        if code == 0:
            values = [v for v in args["values"] if v.strip()]
            with open(os.path.join(out, "sweep.csv"), encoding="ascii") as fh:
                rows = fh.read().splitlines()[1:]
            assert len(rows) == len(values) * len(args["seeds"]) + 2 * len(values)


ARTIFACTS = ("final_model.t3r", "run_manifest.json")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_run")
    config = root / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in BASE.items()))
    code, err = run_cli(["run", "--config", str(config), "--out", str(root / "run")])
    assert code == 0, err
    return {name: (root / "run" / name).read_bytes() for name in ARTIFACTS}


damage = st.tuples(
    st.sampled_from(ARTIFACTS),
    st.sampled_from(("truncate", "flip")),
    st.integers(0, 2**20),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(damage)
def test_any_damaged_artifact_keeps_the_exit_code_contract(tiny_run, hit):
    name, how, where = hit
    files = dict(tiny_run)
    blob = bytearray(files[name])
    if how == "truncate":
        del blob[where % (len(blob) + 1):]
    else:
        bit = where % (8 * len(blob))
        blob[bit // 8] ^= 1 << (bit % 8)
    files[name] = bytes(blob)
    with tempfile.TemporaryDirectory() as tmp:
        for artifact, content in files.items():
            with open(os.path.join(tmp, artifact), "wb") as fh:
                fh.write(content)
        code, err = run_cli(["analyze", "--run", tmp])
        if code == 0:
            check_finite_outputs(tmp)
    check_contract(code, err, ARTIFACTS)


def test_deeply_nested_manifest_is_a_config_error(tiny_run):
    # Bit flips and truncation cannot nest JSON this deep; json.load gives
    # up on it with RecursionError rather than ValueError.
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "final_model.t3r"), "wb") as fh:
            fh.write(tiny_run["final_model.t3r"])
        with open(os.path.join(tmp, "run_manifest.json"), "w", encoding="ascii") as fh:
            fh.write("[" * 100000 + "]" * 100000)
        code, err = run_cli(["analyze", "--run", tmp])
        assert sorted(os.listdir(tmp)) == sorted(ARTIFACTS)
    assert code == 2 and err.startswith("config error:"), err
    assert "run_manifest.json" in err, err


def check_finite_outputs(run_dir):
    """Every value cell of a successful analyze is a finite float."""
    for name in ("heatmap.csv", "spectra.csv"):
        with open(os.path.join(run_dir, name), encoding="ascii") as fh:
            rows = fh.read().splitlines()[1:]
        cells = [cell for row in rows for cell in row.split(",")[1:]]
        assert cells and all(math.isfinite(float(cell)) for cell in cells), name
    load_finite_json(os.path.join(run_dir, "attack_report.json"))


def load_finite_json(path):
    """The JSON at ``path``, which must hold no NaN or infinity."""
    def reject(constant):
        raise AssertionError(f"{path} holds {constant}")

    with open(path, encoding="ascii") as fh:
        return json.load(fh, parse_constant=reject)
