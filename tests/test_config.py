"""Flat key=value config files: parsing, validation, and echo."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import config_oracle
from config_oracle import config_file_text
from fedceo.config import (
    _SCHEMA,
    DataSpec,
    ModelSpec,
    RunConfig,
    config_to_dict,
    parse_config,
    parse_config_text,
)
from fedceo.dp import DpConfig
from fedceo.errors import ParseError, ValidationError


def test_empty_file_gives_defaults():
    assert parse_config_text("") == RunConfig()


def test_comments_and_blank_lines_ignored():
    text = "\n# a comment\n\nlr = 0.25\n   # indented comment\n"
    assert parse_config_text(text) == dataclasses.replace(RunConfig(), lr=0.25)


def test_whitespace_around_key_and_value():
    cfg = parse_config_text("  rounds   =   12  \n")
    assert cfg.rounds == 12


def test_large_scale_run_settings_echo():
    text = "\n".join([
        "n_total = 100",
        "k_selected = 10",
        "rounds = 300",
        "local_epochs = 30",
        "lr = 0.1",
        "batch = 64",
        "dp.clip_c = 1.0",
    ])
    cfg = parse_config_text(text)
    assert cfg.n_total == 100
    assert cfg.k_selected == 10
    assert cfg.rounds == 300
    assert cfg.local_epochs == 30
    assert cfg.lr == 0.1
    assert cfg.batch == 64
    assert cfg.dp.clip_c == 1.0


def test_every_group_parses():
    text = "\n".join([
        "algorithm = fedceo",
        "lambda0 = 0.25",
        "ratio = 1.1",
        "interval = 10",
        "dp.sigma = 2.0",
        "dp.delta = 0.001",
        "model.kind = mlp",
        "model.hidden = 32",
        "model.bias = false",
        "data.classes = 4",
        "data.dim = 8",
        "data.samples = 500",
        "data.spread = 1.5",
        "data.test_fraction = 0.25",
        "data.seed = 7",
        "partition.mode = dirichlet",
        "partition.alpha = 0.3",
    ])
    cfg = parse_config_text(text)
    assert cfg.algorithm == "fedceo"
    assert cfg.lambda0 == 0.25
    assert cfg.dp.sigma == 2.0
    assert cfg.model == ModelSpec(kind="mlp", hidden=32, bias=False)
    assert cfg.data.partition_mode == "dirichlet"
    assert cfg.data.alpha == 0.3
    assert cfg.data.seed == 7


def test_file_data_source_needs_path():
    cfg = parse_config_text("data.source = file\ndata.path = /tmp/x.ds\n")
    assert cfg.data.source == "file"
    assert cfg.data.path == "/tmp/x.ds"
    with pytest.raises(ValidationError) as err:
        parse_config_text("data.source = file\n")
    assert err.value.field == "data.path"


# ---------------------------------------------------------------------------
# parse errors carry line numbers


def test_missing_equals_sign():
    with pytest.raises(ParseError) as err:
        parse_config_text("lr\n")
    assert err.value.line == 1


def test_missing_key():
    with pytest.raises(ParseError) as err:
        parse_config_text("rounds = 5\n= 3\n")
    assert err.value.line == 2


def test_missing_value():
    with pytest.raises(ParseError) as err:
        parse_config_text("lr =\n")
    assert err.value.line == 1


def test_unconvertible_value():
    with pytest.raises(ParseError) as err:
        parse_config_text("# header\nlr = fast\n")
    assert err.value.line == 2
    assert "lr" in str(err.value)


def test_duplicate_key_reports_both_lines():
    with pytest.raises(ParseError) as err:
        parse_config_text("lr = 0.1\nrounds = 5\nlr = 0.2\n")
    assert err.value.line == 3
    assert "line 1" in str(err.value)


def test_inline_comments_are_not_supported():
    with pytest.raises(ParseError):
        parse_config_text("lr = 0.1  # step size\n")


# ---------------------------------------------------------------------------
# validation errors carry dotted field names


def test_unknown_key_rejected():
    with pytest.raises(ValidationError) as err:
        parse_config_text("turbo = on\n")
    assert err.value.field == "turbo"


def test_negative_noise_multiplier_names_its_field():
    with pytest.raises(ValidationError) as err:
        parse_config_text("dp.sigma = -1\n")
    assert err.value.field == "dp.sigma"


def test_out_of_range_delta_names_its_field():
    with pytest.raises(ValidationError) as err:
        parse_config_text("dp.delta = 2\n")
    assert err.value.field == "dp.delta"


@pytest.mark.parametrize("samples,dim,field", [
    (2, 2 ** 59 - 1, None),        # 2**63 - 16 bytes of features
    (2, 2 ** 59, "data.dim"),      # 2**63 bytes
    (2 ** 60, 1, "data.samples"),
    (10, 10 ** 18, "data.dim"),
])
def test_blobs_past_2_63_bytes_name_the_larger_size(samples, dim, field):
    # NumPy cannot address 2**63 bytes; the rule allocates nothing itself.
    if field is None:
        DataSpec(classes=2, samples=samples, dim=dim)
        return
    with pytest.raises(ValidationError) as err:
        DataSpec(classes=2, samples=samples, dim=dim)
    assert err.value.field == field
    DataSpec(source="file", path="a.ds", classes=2, samples=samples, dim=dim)


def test_cross_field_validation_still_applies():
    with pytest.raises(ValidationError) as err:
        parse_config_text("n_total = 4\nk_selected = 9\n")
    assert err.value.field == "k_selected"


# ---------------------------------------------------------------------------
# rendering back to file text


def test_render_parse_identity_on_defaults():
    assert parse_config_text(config_file_text(RunConfig())) == RunConfig()


def test_render_parse_identity_on_custom_config():
    cfg = RunConfig(
        n_total=8, k_selected=2, rounds=7, local_epochs=2, batch=8, lr=0.05,
        dp=DpConfig(clip_c=0.5, sigma=3.0, delta=1e-3),
        lambda0=0.2, ratio=1.2, interval=7, algorithm="fedceo", seed=3,
        eval_every=7,
        model=ModelSpec(kind="mlp", hidden=16, bias=True),
        data=DataSpec(classes=4, dim=6, samples=300, spread=2.5,
                      test_fraction=0.3, seed=11, partition_mode="dirichlet",
                      alpha=0.3),
    )
    assert parse_config_text(config_file_text(cfg)) == cfg


def test_render_emits_booleans_in_file_syntax():
    text = config_file_text(dataclasses.replace(
        RunConfig(), model=ModelSpec(bias=True)))
    assert "model.bias = true" in text


def test_parse_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("rounds = 9\nalgorithm = fedavg\n")
    cfg = parse_config(path)
    assert cfg.rounds == 9
    assert cfg.algorithm == "fedavg"


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_config(tmp_path / "absent.cfg")


def test_importing_config_leaves_out_the_round_pipeline():
    code = "import sys, fedceo.config; assert 'fedceo.protocol' not in sys.modules"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the schema-derived rendering against the hand-written one it replaced

BASE = RunConfig(
    n_total=8, k_selected=2, rounds=7, local_epochs=2, batch=8, lr=0.05,
    dp=DpConfig(clip_c=0.5, sigma=3.0, delta=1e-3),
    lambda0=0.2, ratio=1.2, interval=7, algorithm="ldp_fedavg", seed=3, eval_every=7,
)
SOURCES = {"blobs": dict(classes=4, dim=6, samples=300, spread=2.5),
           "file": dict(path="data/six.ds")}
# dirichlet_default leaves alpha at its default: partition.alpha is written
# whenever the mode is dirichlet, not only when alpha differs from the default.
PARTITIONS = {"iid": dict(partition_mode="iid"),
              "dirichlet": dict(partition_mode="dirichlet", alpha=0.3),
              "dirichlet_default": dict(partition_mode="dirichlet")}
# the axes: data source, partition mode, model.bias, logistic (else mlp), data.seed
GRID = list(itertools.product(SOURCES, PARTITIONS, (None, True, False), (False, True),
                              (None, 11)))
CORPUS = [
    dataclasses.replace(
        BASE, model=ModelSpec(kind="logistic" if logistic else "mlp", hidden=16, bias=bias),
        data=DataSpec(source=source, test_fraction=0.3, seed=seed,
                      **SOURCES[source], **PARTITIONS[partition]),
    )
    for source, partition, bias, logistic, seed in GRID
]
CORPUS_IDS = ["-".join(map(str, cell)) for cell in GRID]
STRAY_PATH = dataclasses.replace(BASE, data=DataSpec(path="data/six.ds"))


@pytest.mark.parametrize("cfg", CORPUS + [STRAY_PATH], ids=CORPUS_IDS + ["stray-path"])
def test_rendering_matches_the_hand_written_oracle(cfg):
    manifest = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
    assert manifest == json.dumps(config_oracle.config_to_dict(cfg), indent=2, sort_keys=True)


@pytest.mark.parametrize("cfg", CORPUS, ids=CORPUS_IDS)
def test_rendering_reparses_to_the_same_config(cfg):
    assert parse_config_text(config_file_text(cfg)) == cfg


def test_stray_path_on_blobs_is_not_rendered():
    text = config_file_text(STRAY_PATH)
    assert "data.path" not in text
    assert parse_config_text(text) == dataclasses.replace(STRAY_PATH, data=DataSpec())


def test_readme_lists_every_config_key_in_schema_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    keys = [line.split("|")[1].strip().strip("`") for line in section.splitlines()
            if line.startswith("| `")]
    assert keys == list(_SCHEMA)
