"""Command-line entry point: it parses arguments, calls the library and
maps the library's exceptions to exit codes.  Subcommands::

    fedceo run      --config FILE --out DIR [--threads N]
    fedceo sweep    --config FILE --axis KEY --values V1,V2,... \
                    --seeds S1,S2,... --out DIR [--threads N]
    fedceo analyze  --run DIR [--out DIR]
    fedceo gen-data --out FILE [--classes N] [--dim D] [--samples N]
                    [--spread S] [--seed S]

gen-data's flags follow the rules of the ``data.*`` keys they name.  Exit
codes (mapped in :mod:`fedceo.errors`): 0 on success, 2 for an input error,
including a path that cannot be read or written, 3 for a numeric failure,
130 on an interrupt (SIGINT) and 141 when stdout's reader has gone; each
failure prints one line to stderr, except 141, which prints none.
``run`` and ``sweep`` check --out before any training and create nothing
when it cannot become a directory.  --threads caps the threads that
share each round's lock steps, noise draws and smoothing pass (default:
the CPUs this process may use); it changes no byte of any file ``run`` or
``sweep`` writes.  ``run`` writes its manifest last.  A sweep large enough
to repay it runs its cells side by side on up to --threads forked worker
processes, splitting the threads between them, and a file-backed sweep
reads its data file once for all of them.  A sweep that fails or is
interrupted keeps the rows of the cells before the failure in sweep.csv.
``gen-data`` formats a file large enough to repay it on forked worker
processes, one per usable CPU at most, and a small one on the caller;
it has no flag for this, and the file's bytes do not depend on it.
``analyze`` gets all three of its outputs from
:func:`fedceo.analysis.analyze_run` before it writes any.  Every file is
written by :func:`fedceo.errors.write_file`, which replaces it whole.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import __version__
# smoothness_map, spectral_curves and load_tensors go unused here, but the
# benchmark tracer wraps fedceo.cli.<name> for each of them by name.
from .analysis import analyze_run, smoothness_map, spectral_curves  # noqa: F401
from .config import DataSpec, parse_config
from .data import save_dataset, synth_blobs
from .errors import INPUT_ERRORS, NUMERIC_FAILURES, ValidationError, write_file
from .protocol import run_experiment, write_run_outputs
from .sweep import SweepResult, SweepSpec, sweep, sweep_csv_text
from .tensor import load_tensors  # noqa: F401


def _check_out_dir(path) -> None:
    """Fail at once, creating nothing, if ``path`` cannot become an output
    directory: it must not be empty, an existing path must be a directory,
    and otherwise so must its nearest existing ancestor."""
    if not path:
        raise ValidationError("must not be empty", field="--out")
    probe = path
    while probe and not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe or "."):
        raise NotADirectoryError(errno.ENOTDIR, "not a directory", probe)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedceo",
        description="Deterministic federated-learning simulator with "
                    "server-side low-rank tensor smoothing.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True, help="flat key=value config file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--threads", type=int, default=None,
                       help="threads that share each round's training, noise and "
                            "smoothing; changes no output (default: the usable CPU "
                            "count)")

    sweep_p = sub.add_parser("sweep", help="vary one config field over a value grid")
    sweep_p.add_argument("--config", required=True, help="base config file")
    sweep_p.add_argument("--axis", required=True, help="dotted config key, e.g. dp.sigma")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values for the axis")
    sweep_p.add_argument("--seeds", required=True, help="comma-separated seeds")
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument("--threads", type=int, default=None,
                         help="threads the cells share: a large enough sweep runs "
                              "up to this many cells side by side on worker processes; "
                              "changes no output (default: the usable CPU count)")

    analyze_p = sub.add_parser("analyze", help="diagnostics for a finished run")
    analyze_p.add_argument("--run", required=True, help="directory written by `run`")
    analyze_p.add_argument("--out", default=None,
                           help="output directory (default: the run directory)")

    gen_p = sub.add_parser("gen-data", help="write a synthetic blob dataset file")
    gen_p.add_argument("--out", required=True, help="destination dataset file")
    gen_p.add_argument("--classes", type=int, default=DataSpec.classes)
    gen_p.add_argument("--dim", type=int, default=DataSpec.dim)
    gen_p.add_argument("--samples", type=int, default=DataSpec.samples)
    gen_p.add_argument("--spread", type=float, default=DataSpec.spread)
    # DataSpec's seed, None, means the run's seed, and gen-data has no run.
    gen_p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    _check_out_dir(args.out)
    result = run_experiment(cfg, threads=args.threads)
    write_run_outputs(result, args.out)
    last = result.metrics[-1]
    print(f"run complete: round={last.round} loss={last.loss:.6f} acc={last.acc:.4f}")
    print(f"wrote metrics.csv, final_model.t3r, run_manifest.json to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    base = parse_config(args.config)
    values = tuple(v.strip() for v in args.values.split(",") if v.strip())
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    except ValueError:
        raise ValidationError("seeds must be integers", field="seeds") from None
    spec = SweepSpec(base=base, axis=args.axis, values=values, seeds=seeds)
    _check_out_dir(args.out)
    try:
        # sweep checks every cell config before the first cell runs, and
        # the directory is made only once there are rows to write.
        result = sweep(spec, args.threads)
    except BaseException as exc:  # an interrupt keeps the finished rows too
        partial = getattr(exc, "partial_rows", [])
        if partial:
            csv_path = _save_sweep_csv(args.out, SweepResult(spec, partial, []))
            print(f"sweep failed after {len(partial)} cells; partial rows kept "
                  f"in {csv_path}")
        raise
    _save_sweep_csv(args.out, result)
    for s in result.summaries:
        print(f"{spec.axis}={s.value}: acc={s.mean_acc:.4f} +- {s.std_acc:.4f}")
    print(f"wrote sweep.csv to {args.out}")
    return 0


def _save_sweep_csv(out_dir, result: SweepResult) -> str:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    write_file(csv_path, [sweep_csv_text(result)])
    return csv_path


def _cmd_analyze(args) -> int:
    out_dir = args.out or args.run
    # Every output is computed first, so that a failure leaves --out as it was.
    outputs, total, cosine = analyze_run(args.run)
    os.makedirs(out_dir, exist_ok=True)
    for name, chunks in outputs.items():
        write_file(os.path.join(out_dir, name), chunks)
    print(f"smoothness total: {total:.6f}")
    print(f"attack noiseless cosine: {cosine:.6f}")
    print(f"wrote {', '.join(outputs)} to {out_dir}")
    return 0


def _cmd_gen_data(args) -> int:
    spec = DataSpec(classes=args.classes, dim=args.dim, samples=args.samples,
                    spread=args.spread, seed=args.seed)
    save_dataset(args.out, synth_blobs(spec.classes, spec.dim, spec.samples,
                                       spec.spread, spec.seed))
    print(f"wrote {args.samples} samples ({args.classes} classes, dim {args.dim}) "
          f"to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "gen-data": _cmd_gen_data,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # run and sweep pass --threads on as given; None means every usable CPU.
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ValidationError("must be >= 1", field="--threads")
        code = _COMMANDS[args.command](args)
        if sys.stdout is not None:
            sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except SystemExit as exc:  # --help, --version or a usage error: argparse's status
        return exc.code
    except BrokenPipeError:
        # Whoever read stdout has gone: stop quietly, with the status a shell
        # gives a pipeline member that SIGPIPE ends.  Pointing stdout at the
        # null device keeps the flush at exit from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except INPUT_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
