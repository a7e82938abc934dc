"""Machine-speed calibration.

The shared machines this benchmark runs on change speed by up to 1.9x over
seconds to minutes, because other tenants load the same physical cores. Both
wall and CPU time drift alike. So every reported time is rescaled by a fixed
reference loop timed right before and after the measured work:

    reported = measured * REFERENCE_S / (reference loop's time around it)

A reported second is then a second on a machine where the loop takes about
REFERENCE_S. Program changes cannot move the loop, which is the benchmark's
own code; only the machine's speed does. Raw wall times stay in the result
file.

Contention slows bytecode dispatch more than JSON encoding and small-file
I/O, so the loop matches the workload's kind of work. The DAG workloads are
interpreter-bound and use the bytecode part alone. `characterize` also
round-trips a JSON document through a small file. In one 80-second trial, the
spread of 8-second medians was 7.5% with the bytecode-only loop and 2.8% with
this one.
"""

from __future__ import annotations

import json
import os
import time

REFERENCE_S = 0.02


def reference_loop_s(workdir: str, with_io: bool) -> float:
    """Wall time of a fixed mix of integer, float and dict work, plus, with
    `with_io`, JSON encoding and a small-file round trip in `workdir`."""
    t0 = time.perf_counter()
    n = 40000 if with_io else 80000
    acc, x, table = 0, 0.0, {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
        x += acc * 1e-9
    if with_io:
        doc = {str(k): [v, v * 0.5, "x" * (v % 7)] for k, v in table.items()}
        path = os.path.join(workdir, "reference.json")
        for _ in range(4):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
            with open(path, encoding="utf-8") as fh:
                json.loads(fh.read())
        os.remove(path)
    if len(table) > 1024 or x < 0:
        raise AssertionError("unreachable; keeps the loop's results live")
    return time.perf_counter() - t0
