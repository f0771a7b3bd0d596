"""Exit-code contract of ``fedceo.cli.main`` under generated inputs.

Whatever value a config key takes, and however a finished run's artifacts
are truncated or bit-flipped, the command exits 0, 2 (an input error whose
message names the offending key or file) or 3 (a numeric failure), and no
exception escapes.  Examples are derandomized, so every run of the suite
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
from fedceo.config import _SCHEMA, _to_bool, _to_float, _to_int
from fedceo.protocol import ALGORITHMS

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
    if convert is _to_int:
        return st.integers(-2, INT_BOUNDS.get(key, 64)).map(str)
    if convert is _to_float:
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
def test_any_config_value_keeps_the_exit_code_contract(values):
    config = {**BASE, **values}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in config.items())
        code, err = run_cli(["run", "--config", path, "--out", os.path.join(tmp, "out")])
    check_contract(code, err, [*config, "run.cfg", *WORDS["data.path"]])


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


def check_finite_outputs(run_dir):
    """Every value cell of a successful analyze is a finite float."""
    for name in ("heatmap.csv", "spectra.csv"):
        with open(os.path.join(run_dir, name), encoding="ascii") as fh:
            rows = fh.read().splitlines()[1:]
        cells = [cell for row in rows for cell in row.split(",")[1:]]
        assert cells and all(math.isfinite(float(cell)) for cell in cells), name

    def reject(constant):
        raise AssertionError(f"attack_report.json holds {constant}")

    with open(os.path.join(run_dir, "attack_report.json"), encoding="ascii") as fh:
        json.load(fh, parse_constant=reject)
