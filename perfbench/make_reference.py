"""Regenerate reference.json: every workload's final metrics at every input slot.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only when a change to fedceo is meant to change run outputs, and
say so in that change.  Entries of workloads not named are kept.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import no_span  # noqa: E402


def main(names) -> int:
    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        entries = {}
        for slot in range(workloads.SEED_SLOTS):
            workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=out_dir))
            try:
                wl = workloads.WORKLOADS[name](slot, workdir)
                iter_dir = workdir / "iter"
                iter_dir.mkdir()
                outcomes = wl.iterate(iter_dir, no_span)
            finally:
                shutil.rmtree(workdir)
            errors = [f"{o.label}: {o.error}" for o in outcomes if o.error]
            if errors:
                print(f"{name} slot {slot} failed: {errors}", file=sys.stderr)
                return 1
            entries[str(slot)] = {o.label: o.rows for o in outcomes}
            print(f"{name} slot {slot}: {entries[str(slot)]}")
        reference[name] = entries
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
