"""Digests of the run outputs that a change which keeps the numerics must
leave as they are.

    python tests/run_digests.py            # the whole identity set
    python tests/run_digests.py --write    # regenerate tests/digests.json
    python tests/run_digests.py --checked  # the pinned rows, as JSON

With no flag it runs the identity set and prints, one line a run, the
sha256 of its ``metrics.csv`` and of its ``final_model.t3r`` (of a sweep,
its ``sweep.csv``), then one sha256 over the whole table:

* the benchmark's desk config (``perfbench/workloads.py`` ``DESK``) as
  fedavg, ldp_fedavg and fedceo at seeds 0-4;
* its stress config (``STRESS``) at seeds 0-2, on 1 and on 2 threads;
* its cli run config (``CLI_RUN_CONFIG``) through ``fedceo run``, on a
  ``fedceo gen-data`` file (``CLI_DATA``) of the same seed, at seeds 0-1,
  on 1 and on 2 threads;
* the defaults an empty config file gives, as fedceo at seeds 0-2: its
  logistic model's bias stacks are wide, (1, 10, 5), beside cli's wide
  (32, 64, 10) first layer;
* the cli run again at seeds 0-1 on 2 threads with the three thread floors
  (``dp.MIN_DRAWS_PER_THREAD``, ``models.MIN_PARAMS_PER_THREAD``,
  ``tensor.MIN_WORK_PER_THREAD``) set to 1, so its rounds, too small to
  pool otherwise, train their ragged clients and draw their noise in two
  interleaved blocks of rows, and its smoothing passes transform two
  interleaved blocks of each stack's rows along the long side;
* the cli benchmark's sweep through ``fedceo sweep`` (axis ``dp.sigma``
  over ``CLI_SWEEP_VALUES``, seeds 0 and ``SEED_SLOTS``) on its gen-data
  file of seed 0, on 2 threads: its four cells run on two forked workers.

BLAS is pinned to one thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS``) before NumPy loads it, since its thread count can
change how a large matrix product rounds.  Run the script on
two commits and compare the last line.  It is not a test: pytest does not
collect it, and it takes about 30 s on two CPUs.

``tests/digests.json`` pins a few seconds' subset of it (:func:`checked_set`),
with the NumPy version and BLAS build the digests were taken under, and
``tests/test_digests.py`` compares a fresh run of that subset with it: a
change that moves a byte of these outputs updates the file with
``--write`` and says why.
"""

from __future__ import annotations

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fedceo import cli, config, dp, models, protocol, tensor  # noqa: E402
from workloads import (  # noqa: E402
    CLI_DATA,
    CLI_RUN_CONFIG,
    CLI_SWEEP_VALUES,
    DESK,
    SEED_SLOTS,
    STRESS,
)

OUTPUTS = ("metrics.csv", "final_model.t3r")
DIGESTS = Path(__file__).with_name("digests.json")

# The rows of the identity set that tests/digests.json pins, and one more.
CHECKED = ("desk fedavg seed=0", "desk ldp_fedavg seed=0", "desk fedceo seed=0",
           "defaults fedceo seed=0", "cli seed=0 threads=1", "cli pooled seed=0 threads=2",
           "cli sweep seed=0 threads=2")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_config(cfg, threads: int, out: Path) -> tuple:
    protocol.write_run_outputs(protocol.run_experiment(cfg, threads=threads), out)
    return OUTPUTS


def _cli(seed: int, out: Path, command: str, *flags: str) -> None:
    """``fedceo gen-data`` of the cli data at ``seed``, then ``fedceo
    command`` with ``flags`` on the cli run config of that seed and file."""
    data, config = out.with_suffix(".ds"), out.with_suffix(".cfg")
    data_flags = [f"--{key}={value}" for key, value in CLI_DATA.items()]
    config.write_text(CLI_RUN_CONFIG.format(seed=seed, path=data))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["gen-data", "--out", str(data), f"--seed={seed}", *data_flags],
                     [command, "--config", str(config), "--out", str(out), *flags]):
            if cli.main(argv) != 0:
                raise SystemExit(f"fedceo {' '.join(argv)} failed")


def _run_cli(seed: int, threads: int, out: Path) -> tuple:
    _cli(seed, out, "run", "--threads", str(threads))
    return OUTPUTS


def _run_cli_sweep(seed: int, threads: int, out: Path) -> tuple:
    _cli(seed, out, "sweep", "--axis", "dp.sigma", "--values", CLI_SWEEP_VALUES,
         "--seeds", f"{seed},{seed + SEED_SLOTS}", "--threads", str(threads))
    return ("sweep.csv",)


FLOORS = ((dp, "MIN_DRAWS_PER_THREAD"), (models, "MIN_PARAMS_PER_THREAD"),
          (tensor, "MIN_WORK_PER_THREAD"))


def _run_cli_pooled(seed: int, out: Path) -> tuple:
    saved = [getattr(module, name) for module, name in FLOORS]
    for module, name in FLOORS:
        setattr(module, name, 1)
    try:
        return _run_cli(seed, 2, out)
    finally:
        for (module, name), value in zip(FLOORS, saved):
            setattr(module, name, value)


def _run_defaults(seed: int, out: Path) -> tuple:
    empty = out.with_suffix(".cfg")
    empty.write_text("")
    cfg = dataclasses.replace(config.parse_config(empty), algorithm="fedceo", seed=seed)
    return _run_config(cfg, 1, out)


def identity_set():
    """(label, writer) per run, where ``writer(out)`` writes its outputs and
    returns the names of those the row holds digests of."""
    for alg in ("fedavg", "ldp_fedavg", "fedceo"):
        for seed in range(5):
            cfg = dataclasses.replace(DESK, algorithm=alg, seed=seed)
            yield f"desk {alg} seed={seed}", partial(_run_config, cfg, 1)
    for seed in range(3):
        for threads in (1, 2):
            yield (f"stress seed={seed} threads={threads}",
                   partial(_run_config, dataclasses.replace(STRESS, seed=seed), threads))
    for seed in range(2):
        for threads in (1, 2):
            yield f"cli seed={seed} threads={threads}", partial(_run_cli, seed, threads)
    for seed in range(3):
        yield f"defaults fedceo seed={seed}", partial(_run_defaults, seed)
    for seed in range(2):
        yield f"cli pooled seed={seed} threads=2", partial(_run_cli_pooled, seed)
    yield "cli sweep seed=0 threads=2", partial(_run_cli_sweep, 0, 2)


def checked_set():
    """The :data:`CHECKED` rows of :func:`identity_set`, then stress cut to
    one round on 2 threads: one (256, 256, 50) smoothing pass, whose bits
    move with the BLAS thread count."""
    yield from (row for row in identity_set() if row[0] in CHECKED)
    yield ("stress rounds=1 seed=0 threads=2",
           partial(_run_config, dataclasses.replace(STRESS, rounds=1), 2))


def digests(rows):
    """(label, {output name: sha256}) per row, each run in a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, write) in enumerate(rows):
            out = Path(tmp) / f"run{i}"
            yield label, {name: _sha(out / name) for name in write(out)}


def build():
    """The NumPy version and its BLAS build, which the digests hold under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def checked() -> dict:
    return {**build(), "rows": [{"label": label, **shas}
                                for label, shas in digests(checked_set())]}


def main(argv) -> None:
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps(checked(), indent=1) + "\n")
        print(f"wrote {DIGESTS}")
        return
    if argv == ["--checked"]:
        print(json.dumps(checked()))
        return
    if argv:
        raise SystemExit("usage: run_digests.py [--write | --checked]")
    table = []
    for label, shas in digests(identity_set()):
        line = "  ".join([label.ljust(32), *shas.values()])
        print(line, flush=True)
        table.append(line)
    text = "\n".join(table) + "\n"
    print(f"table  {hashlib.sha256(text.encode('ascii')).hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
