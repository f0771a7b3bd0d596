"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is everything before round 1: importing fedceo, building or
parsing the config, ``build_dataset`` and ``build_model``.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
start = time.perf_counter()
import workloads  # noqa: E402  (imports fedceo inside the timed region)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3])).setup()
print(time.perf_counter() - start)
