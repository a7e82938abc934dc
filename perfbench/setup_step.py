"""Time one set-up of a benchmark workload in a fresh interpreter.

    python3 perfbench/setup_step.py WORKLOAD SEED SIZE DIR WITH_IO

WITH_IO (0 or 1) selects the workload's calibration loop (calibration.py).

Set-up time counts importing the motifbench package plus the workload's own
set-up (generating file inputs or event dumps, writing the spec) into DIR;
importing the benchmark's modules is not counted. The reference loop of
calibration.py is timed before and after. Prints one JSON line with both
times and the CLI commands attempted and failed.
"""

from __future__ import annotations

import json
import os
import sys
import time

from calibration import reference_loop_s

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    name, seed, size, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    with_io = sys.argv[5] == "1"
    sys.path.insert(0, SRC)
    os.makedirs(workdir)
    before = reference_loop_s(workdir, with_io)
    t0 = time.perf_counter()
    import motifbench.cli  # noqa: F401  (the import every CLI user pays)
    imported = time.perf_counter() - t0

    import workloads

    ctx = workloads.Context(name, workdir, seed, size)
    t1 = time.perf_counter()
    workloads.WORKLOADS[name].setup(ctx)
    setup_s = imported + time.perf_counter() - t1
    reference_s = (before + reference_loop_s(workdir, with_io)) / 2
    print(json.dumps({"setup_s": setup_s, "reference_s": reference_s,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "problems": ctx.problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
