"""Run the benchmark the way a comparison does and summarize it.

    python3 perfbench/baseline.py [--seeds 0-9] [--out perfbench/BASELINE.json] [WORKLOAD ...]

For each workload: one untraced run per seed, then one traced run on the
first seed.  Each end-to-end metric gets its median, quartiles and spread
(quartile distance over median, as ``statistics.quantiles(n=4)`` gives
them); the traced run gives the per-layer values.  Run length comes from
``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(environment record, result object) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = done.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return env, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="first-last seed, inclusive")
    parser.add_argument("--out", default=str(HERE / "BASELINE.json"))
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]

    summary = {"run_seconds": seconds, "seeds": [first, last], "workloads": {}}
    for name in names:
        values, failures = {}, 0
        for seed in range(first, last + 1):
            env, result = run(name, seed, seconds, 0)
            failures += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)
        summary.setdefault("env", env)
        _, traced = run(name, first, seconds, 1)
        layers = {m: e["value"] for m, e in traced["metrics"].items()}
        wall = layers["trace.wall_s"]
        summary["workloads"][name] = {
            "failed": failures + traced["failed"],
            "end_to_end": {m: summarize(v) for m, v in values.items()},
            "per_layer": layers,
            "share_of_traced_wall": {
                "models.local_train": layers["models.local_train.s"] / wall,
                "tensor": (layers["tensor.truncated_tsvd.s"] + layers["tensor.tnn.s"]) / wall,
            },
        }
        for metric, stats in summary["workloads"][name]["end_to_end"].items():
            print(f"  {metric:14s} median {stats['median']:.6g} spread {stats['spread']:.4f}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
