"""Digests of the run outputs that a change which keeps the numerics must
leave as they are.

    python tests/run_digests.py

Runs the identity set and prints, one line a run, the sha256 of its
``metrics.csv`` and of its ``final_model.t3r``, then one sha256 over the
whole table:

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
  interleaved blocks of each stack's rows along the long side.

OpenBLAS is pinned to one thread before NumPy loads it, since its thread
count can change how a large matrix product rounds.  Run the script on
two commits and compare the last line.  It is not a test: pytest does not
collect it, and it takes about 30 s on two CPUs.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fedceo import cli, config, dp, models, protocol, tensor  # noqa: E402
from workloads import CLI_DATA, CLI_RUN_CONFIG, DESK, STRESS  # noqa: E402

OUTPUTS = ("metrics.csv", "final_model.t3r")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_config(cfg, threads: int, out: Path) -> None:
    protocol.write_run_outputs(protocol.run_experiment(cfg, threads=threads), out)


def _run_cli(seed: int, threads: int, out: Path) -> None:
    data, config = out.with_suffix(".ds"), out.with_suffix(".cfg")
    flags = [f"--{key}={value}" for key, value in CLI_DATA.items()]
    config.write_text(CLI_RUN_CONFIG.format(seed=seed, path=data))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["gen-data", "--out", str(data), f"--seed={seed}", *flags],
                     ["run", "--config", str(config), "--out", str(out),
                      "--threads", str(threads)]):
            if cli.main(argv) != 0:
                raise SystemExit(f"fedceo {' '.join(argv)} failed")


FLOORS = ((dp, "MIN_DRAWS_PER_THREAD"), (models, "MIN_PARAMS_PER_THREAD"),
          (tensor, "MIN_WORK_PER_THREAD"))


def _run_cli_pooled(seed: int, out: Path) -> None:
    saved = [getattr(module, name) for module, name in FLOORS]
    for module, name in FLOORS:
        setattr(module, name, 1)
    try:
        _run_cli(seed, 2, out)
    finally:
        for (module, name), value in zip(FLOORS, saved):
            setattr(module, name, value)


def _run_defaults(seed: int, out: Path) -> None:
    empty = out.with_suffix(".cfg")
    empty.write_text("")
    cfg = dataclasses.replace(config.parse_config(empty), algorithm="fedceo", seed=seed)
    _run_config(cfg, 1, out)


def identity_set():
    """(label, writer) per run, where ``writer(out)`` writes its outputs."""
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


def main() -> None:
    table = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, write) in enumerate(identity_set()):
            out = Path(tmp) / f"run{i}"
            write(out)
            line = "  ".join([label.ljust(32)] + [_sha(out / name) for name in OUTPUTS])
            print(line, flush=True)
            table.append(line)
    text = "\n".join(table) + "\n"
    print(f"table  {hashlib.sha256(text.encode('ascii')).hexdigest()}")


if __name__ == "__main__":
    main()
