"""Benchmark entry point.

    python3 perfbench/run.py --workload desk|stress|cli --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, times set-up in fresh
interpreters, then runs whole workload iterations back to back for about
``--seconds`` seconds (at least two, so same-seed outputs can be compared
byte for byte).  Every operation's final metrics are checked against
``reference.json``.  A speed probe runs after each set-up and each
operation, and the end-to-end times are scaled by it to the reference
machine's speed (see ``calibration.py``).

With ``--trace 0`` the metrics are the end-to-end ones listed in the
repository's ``BENCHMARK.json``; with ``--trace 1`` untraced and traced
iterations alternate and the metrics are its per-layer ones.  A report
goes to standard output, ending with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The environment, the report
and (when tracing) every span are also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread whatever the caller's environment says, set before NumPy
# loads OpenBLAS (setup probes inherit it): every workload then runs at
# most 2 threads on the 2-CPU reference machine, the cli sweep's two pool
# threads included.  Two BLAS threads were no faster on stress there and
# spread more between runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from calibration import SpeedProbe  # noqa: E402
from tracer import Tracer, layer_metrics, no_span  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
MIN_ITERATIONS = 2
THREADS_ENV_VAR = "FEDCEO_THREADS"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fedceo benchmark")
    parser.add_argument("--workload", required=True, choices=("desk", "stress", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, or None if unknown."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        THREADS_ENV_VAR: os.environ.get(THREADS_ENV_VAR),
        "loadavg_at_start": os.getloadavg(),
    }


def measure_setup(workload: str, seed: int, workdir: Path):
    """Raw set-up times, each of them scaled by the speed probes on either
    side of it, and the probe."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)]
    raw, scaled, probe = [], [], SpeedProbe()
    probe.sample()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(done.stdout.split()[-1]))
        probe.sample()
        scaled.append(raw[-1] * probe.scale(len(probe.samples) - 2))
    return raw, scaled, probe


def measure(wl, seconds: float, tracer: Tracer | None, workdir: Path):
    """Run iterations for about ``seconds``, with a speed probe before the
    first and after every operation.  Returns the raw walls of untraced
    iterations (probes left out), the (raw wall, layer metrics) of traced
    ones, every iteration's outcomes, and the probe.  With a tracer, every
    second iteration is traced."""
    plain, traced, log, probe = [], [], [], SpeedProbe()
    begin = time.perf_counter()
    probe.sample()
    while True:
        iter_dir = Path(tempfile.mkdtemp(prefix="iter-", dir=workdir))
        probed = probe.spent
        if tracer is not None and len(log) % 2 == 1:
            tracer.trace = len(log)
            tracer.reset_counts()
            first = len(tracer.spans)
            with tracer.installed():
                start = time.perf_counter()
                outcomes = wl.iterate(iter_dir, tracer.span, probe.sample)
                wall = time.perf_counter() - start - (probe.spent - probed)
            traced.append((wall, layer_metrics(tracer.spans[first:], tracer.counts())))
        else:
            start = time.perf_counter()
            outcomes = wl.iterate(iter_dir, no_span, probe.sample)
            wall = time.perf_counter() - start - (probe.spent - probed)
            plain.append(wall)
        shutil.rmtree(iter_dir)
        log.append(outcomes)
        walls = plain + [w for w, _ in traced]
        elapsed = time.perf_counter() - begin
        if len(log) >= MIN_ITERATIONS and elapsed + statistics.median(walls) > seconds:
            return plain, traced, log, probe


def check(log, reference: dict, mismatch):
    """(attempted, failed, problems) over every outcome of every iteration."""
    attempted, problems, digests = 0, [], {}
    for i, outcomes in enumerate(log):
        for outcome in outcomes:
            attempted += 1
            problem = outcome.error or mismatch(outcome, reference.get(outcome.label))
            if problem is None and outcome.digest is not None:
                first = digests.setdefault(outcome.label, outcome.digest)
                if outcome.digest != first:
                    problem = "metrics.csv differs from the first same-seed run"
            if problem:
                problems.append(f"iteration {i} {outcome.label}: {problem}")
    return attempted, len(problems), problems


def end_to_end(wl, setup, plain, scale, log, attempted, failed) -> dict:
    """Times are at the reference machine's speed; ``raw_*`` as measured.

    ``wall_s`` is the run's mean iteration time times ``scale``, the
    reference probe time over the run's mean probe time: the ratio of
    whole-run totals, which averages the machine's speed over the run
    better than a median of a few scaled iterations does."""
    accs = [row["acc"] for outcome in log[-1] for row in outcome.rows]
    wall = statistics.fmean(plain) * scale
    return {
        "setup_s": (statistics.median(setup[1]), "s"),
        "wall_s": (wall, "s"),
        "rounds_per_s": (wl.rounds / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "final_acc": (statistics.fmean(accs) if accs else 0.0, "fraction"),
        "success_rate": ((attempted - failed) / attempted, "fraction"),
        "raw_setup_s": (statistics.median(setup[0]), "s"),
        "raw_wall_s": (statistics.median(plain), "s"),
    }


def per_layer(plain, traced) -> dict:
    layers = {}
    for name, (_, unit) in traced[0][1].items():
        layers[name] = (statistics.median(m[name][0] for _, m in traced), unit)
    traced_wall = statistics.median(w for w, _ in traced)
    layers["trace.wall_s"] = (traced_wall, "s")
    layers["trace.overhead_frac"] = (traced_wall / statistics.median(plain) - 1.0, "fraction")
    return layers


def report(args, env, computed, wanted, attempted, failed, problems) -> dict:
    """Print the human-readable report; return the metrics BENCHMARK.json lists."""
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in computed.items():
        print(f"  {name:32s} {value!r} {unit}")
    print(f"  {'error_rate':32s} {failed / attempted!r} fraction ({failed} of {attempted})")
    if args.trace:
        wall = computed["trace.wall_s"][0]
        tensor = computed["tensor.truncated_tsvd.s"][0] + computed["tensor.tnn.s"][0]
        print(f"  share of traced wall_s: models.local_train "
              f"{computed['models.local_train.s'][0] / wall:.3f}, tensor {tensor / wall:.3f}")
    for problem in problems:
        print(f"  FAILED {problem}")
    metrics = {}
    for entry in wanted:
        value, unit = computed[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} is in {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedceo" / "__init__.py").is_file():
        print(f"perfbench: no fedceo package under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"perfbench: {SPEC} is missing", file=sys.stderr)
        return 2
    threads = os.environ.get(THREADS_ENV_VAR)
    if args.workload != "cli" and threads not in (None, "1"):
        print(f"perfbench: {THREADS_ENV_VAR} must be unset or 1 for {args.workload}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment()
    wanted = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace
                                                           else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup = ([], [], SpeedProbe()) if args.trace else measure_setup(
            args.workload, args.seed, workdir)
        tr = Tracer() if args.trace else None
        plain, traced, log, probe = measure(wl, args.seconds, tr, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = workloads.load_reference().get(args.workload, {}).get(
        str(workloads.slot(args.seed)), {})
    attempted, failed, problems = check(log, reference, workloads.reference_mismatch)
    if args.trace:
        computed = per_layer(plain, traced)
    else:
        computed = end_to_end(wl, setup, plain, probe.scale(0), log, attempted, failed)
    metrics = report(args, env, computed, wanted, attempted, failed, problems)

    record = {"env": env, "setup_s": setup[0], "setup_scaled_s": setup[1],
              "setup_probe_s": setup[2].samples, "plain_wall_s": plain,
              "probe_s": probe.samples, "traced_wall_s": [w for w, _ in traced],
              "problems": problems,
              "metrics": {k: list(v) for k, v in computed.items()}}
    if tr is not None:
        record["spans"] = [list(s) for s in tr.spans]
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
