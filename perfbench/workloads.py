"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop with one caller.  Its inputs come from the
workload seed alone: ``--seed n`` selects input slot ``n % SEED_SLOTS``,
and every slot has reference final metrics in ``reference.json``, so the
output check runs on every seed and is never skipped.

* ``desk``: the acceptance desk config (``DESK`` in
  ``tests/test_acceptance.py``) run as fedavg, ldp_fedavg and fedceo.
  Local SGD is nearly all of it; smoothing is one (20, 10, 5) pass.
* ``stress``: fedceo with a 256-256-10 MLP, N = 100, K = 50, smoothing
  every round, so the (256, 256, 50) and (256, 10, 50) stacks and the
  conversion chain around them dominate.
* ``cli``: a file-backed session through ``fedceo.cli.main``: gen-data,
  run (Dirichlet partition, ragged clients), analyze, and a two-thread
  sweep.  The only workload that writes and reads artifacts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path
from typing import NamedTuple

from fedceo import cli, protocol
from fedceo.config import parse_config
from fedceo.data import save_dataset, synth_blobs
from fedceo.dp import DpConfig
from fedceo.protocol import DataSpec, ModelSpec, RunConfig

SEED_SLOTS = 16

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Tolerance of the output check against the reference: relative for loss
# and tnn_total, relative for the closed-form eps_p, absolute for acc
# (0.0025 is one test sample of desk's 400, five of the 2000 elsewhere).
TOLERANCE = {"loss": 1e-6, "tnn_total": 1e-6, "eps_p": 1e-9, "acc": 0.0025}

# Noise multiplier pricing the desk privacy budget at 0.5 (acceptance 07).
HIGH_SIGMA = 1.0 * (5 / 20) * math.sqrt(60 * math.log(100)) / 0.5

DESK = RunConfig(
    n_total=20, k_selected=5, rounds=60, local_epochs=30, batch=16, lr=0.1,
    dp=DpConfig(clip_c=0.5, sigma=HIGH_SIGMA, delta=1e-2),
    lambda0=1 / 6, ratio=1.05, interval=60, algorithm="ldp_fedavg",
    seed=0, eval_every=60,
    model=ModelSpec(kind="logistic", bias=False),
    data=DataSpec(classes=10, dim=20, samples=2000, spread=2.0),
)

# lr = 0.2 rather than the default 0.1: at 0.1 the final accuracy is still
# climbing steeply at round 4 and spreads 15% across seeds; at 0.2 it
# settles near 0.998.  The work done is the same.
STRESS = RunConfig(
    n_total=100, k_selected=50, rounds=4, local_epochs=1, batch=32, lr=0.2,
    interval=1, eval_every=1, algorithm="fedceo",
    model=ModelSpec(kind="mlp", hidden=256),
    data=DataSpec(classes=10, dim=256, samples=10000),
)

CLI_DATA = {"classes": 10, "dim": 32, "samples": 10000, "spread": 1.0}

CLI_RUN_CONFIG = """\
algorithm = fedceo
seed = {seed}
n_total = 40
k_selected = 10
rounds = 20
interval = 5
model.kind = mlp
model.hidden = 64
data.source = file
data.path = {path}
partition.mode = dirichlet
partition.alpha = 0.5
"""

CLI_SWEEP_VALUES = "0.5,2"


class Outcome(NamedTuple):
    """One attempted operation: a run, or one CLI call."""
    label: str
    rows: list[dict]       # final metrics, checked against the reference
    digest: str | None     # sha256 of the run's metrics.csv text
    error: str | None      # why the operation failed, None when it did not


def slot(seed: int) -> int:
    return seed % SEED_SLOTS


def _final_row(row) -> dict:
    return {k: (None if math.isnan(v) else v) for k, v in row._asdict().items()}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _nothing() -> None:
    """Default ``between`` hook of ``iterate``: called after each operation."""


def _run(cfg: RunConfig) -> Outcome:
    try:
        result = protocol.run_experiment(cfg)
    except Exception as exc:  # a failing run is counted, not fatal
        return Outcome(cfg.algorithm, [], None, f"{type(exc).__name__}: {exc}")
    text = protocol.metrics_csv_text(result.metrics)
    return Outcome(cfg.algorithm, [_final_row(result.metrics[-1])], _digest(text), None)


class Desk:
    name = "desk"
    rounds = 3 * DESK.rounds

    def __init__(self, seed: int, workdir: Path):
        self.configs = [dataclasses.replace(DESK, algorithm=alg, seed=slot(seed))
                        for alg in ("fedavg", "ldp_fedavg", "fedceo")]

    def setup(self) -> None:
        cfg = self.configs[0]
        train, _, _ = protocol.build_dataset(cfg)
        protocol.build_model(cfg, train.dim, train.num_classes)

    def iterate(self, iter_dir: Path, span, between=_nothing) -> list[Outcome]:
        outcomes = []
        for cfg in self.configs:
            with span(f"bench.{cfg.algorithm}"):
                outcomes.append(_run(cfg))
            between()
        return outcomes


class Stress(Desk):
    name = "stress"
    rounds = STRESS.rounds

    def __init__(self, seed: int, workdir: Path):
        self.configs = [dataclasses.replace(STRESS, seed=slot(seed))]


class Cli:
    name = "cli"
    rounds = 20 * 5  # one run plus four sweep cells

    def __init__(self, seed: int, workdir: Path):
        self.seed = slot(seed)
        self.setup_config = workdir / "setup.cfg"
        if not self.setup_config.exists():
            data = workdir / "setup.ds"
            blobs = synth_blobs(CLI_DATA["classes"], CLI_DATA["dim"], CLI_DATA["samples"],
                                CLI_DATA["spread"], self.seed)
            save_dataset(data, blobs)
            self.setup_config.write_text(CLI_RUN_CONFIG.format(seed=self.seed, path=data))

    def setup(self) -> None:
        cfg = parse_config(self.setup_config)
        train, _, _ = protocol.build_dataset(cfg)
        protocol.build_model(cfg, train.dim, train.num_classes)

    def iterate(self, iter_dir: Path, span, between=_nothing) -> list[Outcome]:
        data, cfg = iter_dir / "blobs.ds", iter_dir / "run.cfg"
        run_dir, sweep_dir = iter_dir / "run", iter_dir / "sweep"
        gen_args = [f"--{k}={v}" for k, v in CLI_DATA.items()]
        calls = [
            ("gen_data", ["gen-data", "--out", str(data), f"--seed={self.seed}", *gen_args],
             [data]),
            ("run", ["run", "--config", str(cfg), "--out", str(run_dir), "--threads", "1"],
             [run_dir / n for n in ("metrics.csv", "final_model.t3r", "run_manifest.json")]),
            ("analyze", ["analyze", "--run", str(run_dir)],
             [run_dir / n for n in ("heatmap.csv", "spectra.csv", "attack_report.json")]),
            ("sweep", ["sweep", "--config", str(cfg), "--axis", "dp.sigma",
                       "--values", CLI_SWEEP_VALUES,
                       "--seeds", f"{self.seed},{self.seed + SEED_SLOTS}",
                       "--out", str(sweep_dir), "--threads", "2"],
             [sweep_dir / "sweep.csv"]),
        ]
        cfg.write_text(CLI_RUN_CONFIG.format(seed=self.seed, path=data))
        outcomes = []
        for label, argv, files in calls:
            outcomes.append(self._call(label, argv, files, span))
            between()
        return outcomes

    def _call(self, label, argv, files, span) -> Outcome:
        """One CLI call; it fails if it raises, exits non-zero, leaves a
        file missing or writes output that does not parse."""
        output = io.StringIO()
        with span(f"cli.{label}"), contextlib.redirect_stdout(output), \
                contextlib.redirect_stderr(output):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed call, not fatal
                return Outcome(label, [], None, f"raised {type(exc).__name__}: {exc}")
        if code != 0:
            return Outcome(label, [], None, f"exit {code}: {output.getvalue().strip()}")
        missing = [p.name for p in files if not p.exists()]
        if missing:
            return Outcome(label, [], None, f"missing {', '.join(missing)}")
        try:
            return self._read_back(label, files)
        except (OSError, ValueError) as exc:
            return Outcome(label, [], None, f"unreadable output: {type(exc).__name__}: {exc}")

    @staticmethod
    def _read_back(label, files) -> Outcome:
        if label not in ("run", "sweep"):
            return Outcome(label, [], None, None)
        text = files[0].read_text(encoding="ascii")
        lines = text.splitlines()
        if label == "run":
            cells = lines[-1].split(",")
            row = {"round": int(cells[0])}
            for key, cell in zip(("loss", "acc", "tnn_total", "eps_p"), cells[1:]):
                row[key] = float(cell) if cell else None
            return Outcome(label, [row], _digest(text), None)
        rows = []
        for line in lines[1:]:
            value, seed, acc, loss, eps_p = line.split(",")
            if seed in ("mean", "std"):
                continue
            rows.append({"acc": float(acc), "loss": float(loss),
                         "eps_p": float(eps_p) if eps_p else None})
        return Outcome(label, rows, None, None)


WORKLOADS = {w.name: w for w in (Desk, Stress, Cli)}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _close(key: str, got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if key == "round":
        return got == want
    if key == "acc":
        return abs(got - want) <= TOLERANCE["acc"]
    return abs(got - want) <= TOLERANCE[key] * abs(want)


def reference_mismatch(outcome: Outcome, expected: list[dict] | None) -> str | None:
    """Why ``outcome``'s final rows differ from the reference, or None."""
    if expected is None:
        return f"no reference rows for {outcome.label}"
    if len(outcome.rows) != len(expected):
        return f"{len(outcome.rows)} final rows, reference has {len(expected)}"
    for i, (got, want) in enumerate(zip(outcome.rows, expected)):
        if got.keys() != want.keys():
            return f"row {i} fields {sorted(got)} differ from {sorted(want)}"
        for key in want:
            if not _close(key, got[key], want[key]):
                return f"row {i} {key} = {got[key]!r}, reference {want[key]!r}"
    return None
