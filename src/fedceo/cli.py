"""Command-line entry point.

Subcommands::

    fedceo run      --config FILE --out DIR [--threads N]
    fedceo sweep    --config FILE --axis KEY --values V1,V2,... \
                    --seeds S1,S2,... --out DIR [--threads N]
    fedceo analyze  --run DIR [--out DIR]
    fedceo gen-data --out FILE [--classes N] [--dim D] [--samples N]
                    [--spread S] [--seed S]

gen-data's flags follow the rules of the ``data.*`` keys they name.  Exit
codes (mapped in :mod:`fedceo.errors`): 0 on success, 2 for an input error,
including a path that cannot be read or written, 3 for a numeric failure.
``run`` and ``sweep`` check --out before any training and create nothing
when it cannot become a directory.  --threads caps the threads that
decompose the Fourier slices of each smoothing pass (default: the CPUs
this process may use); it changes no output byte, and ``run`` records it
in the manifest, which it writes last.  Sweep cells run one after another.
``analyze`` reads the run's ``final_model.t3r`` and ``run_manifest.json``
and computes all three of its outputs before it writes any.  Every file
is written by :func:`fedceo.errors.write_file`, which replaces it whole.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import invert_linear_gradient, smoothness_map, spectral_curves
from .config import DataSpec, parse_config
from .data import save_dataset, synth_blobs
from .dp import rng_stream
from .errors import (
    INPUT_ERRORS,
    NUMERIC_FAILURES,
    DegenerateGradient,
    ParseError,
    ValidationError,
    write_file,
)
from .models import gradient, logistic_model, param_blocks, unflatten_params
from .protocol import run_experiment, usable_cpus, write_run_outputs
from .sweep import SweepResult, SweepSpec, sweep, sweep_csv_text
from .tensor import load_tensors

ATTACK_SIGMAS = (0.0, 0.5, 1.0, 2.0)
ATTACK_SEEDS = 20


def worker_count(threads: int | None = None) -> int:
    """The number of threads that decompose Fourier slices, from --threads:
    a positive integer, or None for :func:`usable_cpus`.  It changes no
    result."""
    if threads is None:
        return usable_cpus()
    if threads < 1:
        raise ValidationError("must be >= 1", field="--threads")
    return threads


def _check_out_dir(path) -> None:
    """Fail at once, creating nothing, if ``path`` cannot become an output
    directory: an existing path must be a directory, and otherwise so must
    its nearest existing ancestor."""
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
                       help="threads that decompose the Fourier slices; changes "
                            "no output (default: the usable CPU count)")

    sweep_p = sub.add_parser("sweep", help="vary one config field over a value grid")
    sweep_p.add_argument("--config", required=True, help="base config file")
    sweep_p.add_argument("--axis", required=True, help="dotted config key, e.g. dp.sigma")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values for the axis")
    sweep_p.add_argument("--seeds", required=True, help="comma-separated seeds")
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument("--threads", type=int, default=None,
                         help="threads that decompose each cell's Fourier slices; "
                              "cells run serially (default: the usable CPU count)")

    analyze_p = sub.add_parser("analyze", help="diagnostics for a finished run")
    analyze_p.add_argument("--run", required=True, help="directory written by `run`")
    analyze_p.add_argument("--out", default=None,
                           help="output directory (default: the run directory)")

    gen_p = sub.add_parser("gen-data", help="write a synthetic blob dataset file")
    gen_p.add_argument("--out", required=True, help="destination dataset file")
    gen_p.add_argument("--classes", type=int, default=10)
    gen_p.add_argument("--dim", type=int, default=20)
    gen_p.add_argument("--samples", type=int, default=2000)
    gen_p.add_argument("--spread", type=float, default=1.0)
    gen_p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    threads = worker_count(args.threads)
    _check_out_dir(args.out)
    result = run_experiment(cfg, threads=threads)
    write_run_outputs(result, args.out, threads=threads)
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
    threads = worker_count(args.threads)
    _check_out_dir(args.out)
    try:
        # sweep checks every cell config before the first cell runs, and
        # the directory is made only once there are rows to write.
        result = sweep(spec, threads)
    except Exception as exc:
        partial = getattr(exc, "partial_rows", [])
        if partial:
            csv_path = _save_sweep_csv(args.out, SweepResult(spec, partial, []))
            print(f"sweep failed after {len(partial)} cells; partial rows kept "
                  f"in {csv_path}", file=sys.stderr)
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


def _locate_last_weight(tensors: list[np.ndarray], shapes: list,
                        model_path: str) -> np.ndarray:
    """The last layer's weight stack from a saved model file, which must
    hold one (rows, cols, K) stack per block of the parameter layout of
    the manifest's ``layer_shapes``, all sharing one K."""
    found = [t.shape for t in tensors]
    if ([s[:2] for s in found] != param_blocks(shapes)
            or len({s[2] for s in found}) != 1):
        raise ParseError(
            f"{model_path}: stacks {found} do not match the manifest's "
            f"layer_shapes {shapes}"
        )
    # The last layer's blocks start with its weight.
    return tensors[len(param_blocks(shapes[:-1]))]


def _is_layer_shapes(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(s, list) and len(s) == 3 and type(s[0]) is int
        and type(s[1]) is int and isinstance(s[2], bool)
        for s in value
    )


def _attack_report(last_w: np.ndarray, seed: int) -> dict:
    """Closed-form inversion demo on a bias-on softmax head.

    A probe input runs through a head whose weights are the mean of the
    client stack; the single-sample gradient is inverted exactly, then
    under per-entry Gaussian noise at multiples of the gradient's own RMS.
    """
    features, classes, _ = last_w.shape
    head = logistic_model(features, classes, bias=True,
                          rng=rng_stream(seed, purpose="attack"))
    head.layers[0].weight[:] = last_w.mean(axis=2)
    probe_rng = rng_stream(seed, round_no=1, purpose="attack")
    x_true = probe_rng.standard_normal(features)
    y = np.array([int(probe_rng.integers(classes))])
    grad = unflatten_params(head, gradient(head, x_true[None, :], y))
    grad_w, grad_b = grad.layers[0].weight, grad.layers[0].bias

    def cosine(a, b):
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        return float(a @ b / denom) if denom > 0 else 0.0

    x_hat = invert_linear_gradient(grad_w, grad_b)
    noiseless_cosine = cosine(x_hat, x_true)
    scale = float(np.sqrt(np.mean(grad_w**2)))
    per_sigma = []
    for sigma in ATTACK_SIGMAS:
        errors = []
        for trial in range(ATTACK_SEEDS):
            rng = rng_stream(seed, round_no=2, client=trial, purpose="attack")
            gw = grad_w + rng.standard_normal(grad_w.shape) * sigma * scale
            gb = grad_b + rng.standard_normal(grad_b.shape) * sigma * scale
            try:
                recovered = invert_linear_gradient(gw, gb)
                errors.append(1.0 - cosine(recovered, x_true))
            except DegenerateGradient:
                errors.append(1.0)
        per_sigma.append({
            "sigma": sigma,
            "median_error": float(np.median(errors)),
        })
    medians = [entry["median_error"] for entry in per_sigma]
    return {
        "noiseless_cosine": noiseless_cosine,
        "per_sigma": per_sigma,
        "monotone_nondecreasing": bool(
            all(a <= b + 1e-12 for a, b in zip(medians, medians[1:]))
        ),
        "trials_per_sigma": ATTACK_SEEDS,
    }


def _cmd_analyze(args) -> int:
    run_dir = args.run
    out_dir = args.out or run_dir
    model_path = os.path.join(run_dir, "final_model.t3r")
    manifest_path = os.path.join(run_dir, "run_manifest.json")
    tensors = load_tensors(model_path)
    if not tensors:
        raise ParseError(f"{model_path}: holds no tensors")
    with open(manifest_path, "r", encoding="ascii") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{manifest_path}: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ParseError(f"{manifest_path}: not a run manifest")
    seed = manifest["config"].get("seed")
    shapes = manifest.get("layer_shapes")
    if not (type(seed) is int and seed >= 0 and _is_layer_shapes(shapes)):
        raise ParseError(f"{manifest_path}: bad config.seed or layer_shapes")

    last_w = _locate_last_weight(tensors, shapes, model_path)
    k = last_w.shape[2]
    heat = smoothness_map([last_w[:, :, s].T for s in range(k)])
    curves = [spectral_curves(t).curves for t in tensors]
    report = _attack_report(last_w, seed)
    # All computed first, so that a failure above leaves --out as it was.
    outputs = {
        "heatmap.csv": [f"class,{','.join(f'client{s}' for s in range(k))}\n", *(
            f"{j},{','.join(repr(float(v)) for v in row)}\n"
            for j, row in enumerate(heat.matrix))],
        "spectra.csv": ["tensor,slice,index,value\n", *(
            f"{ti},{si},{vi},{float(value)!r}\n"
            for ti, c in enumerate(curves) for (si, vi), value in np.ndenumerate(c))],
        "attack_report.json": [json.dumps(report, indent=2, sort_keys=True), "\n"],
    }
    os.makedirs(out_dir, exist_ok=True)
    for name, chunks in outputs.items():
        write_file(os.path.join(out_dir, name), chunks)

    print(f"smoothness total: {heat.total:.6f}")
    print(f"attack noiseless cosine: {report['noiseless_cosine']:.6f}")
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
    except SystemExit as exc:  # --help, --version or a usage error: argparse's status
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except INPUT_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
