"""``tests/digests.json`` pins the output bytes of a few runs (see
``tests/run_digests.py``): a change that moves one fails here, naming the
run, until it rewrites the file with ``python tests/run_digests.py --write``
and says why."""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ONE_BLAS_THREAD = {var: "1" for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def test_pinned_runs_write_the_bytes_digests_json_holds():
    want = json.loads((HERE / "digests.json").read_text(encoding="ascii"))
    # One child runs them all, with BLAS on one thread before NumPy loads.
    child = subprocess.run([sys.executable, str(HERE / "run_digests.py"), "--checked"],
                           env={**os.environ, **ONE_BLAS_THREAD},
                           capture_output=True, text=True, check=True)
    got = json.loads(child.stdout)
    for key in ("numpy", "blas"):
        assert got[key] == want[key], (
            f"digests.json holds digests taken under {key} {want[key]!r}, and this "
            f"is {got[key]!r}: check the rows by hand, then run_digests.py --write")
    assert [row["label"] for row in got["rows"]] == [row["label"] for row in want["rows"]]
    for row, pinned in zip(got["rows"], want["rows"]):
        assert row == pinned, f"{row['label']}: an output's digest moved"
