"""Record the DAG workloads' output checksums at the default seed.

    python3 perfbench/record_goldens.py

Writes perfbench/goldens.json for both sizes. Run it only when a change is
meant to alter outputs, and say which outputs changed and why. Outputs that
pass through libm are tied to the platform recorded alongside them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the src path above)


def record(name: str, size: str, workdir: str) -> dict:
    ctx = workloads.Context(name, workdir, workloads.DEFAULT_SEED, size)
    os.makedirs(workdir)
    workloads.WORKLOADS[name].setup(ctx)
    (argv, _), = workloads.WORKLOADS[name].commands(ctx)
    rc, _, err = ctx.call(argv)
    if rc != 0 or ctx.failed:
        raise SystemExit(f"{name} ({size}) failed: {err or ctx.problems}")
    with open(ctx.path("report.json"), encoding="utf-8") as fh:
        return json.load(fh)["repeats"][0]["output_checksums"]


def main():
    workdir = os.path.join(HERE, "_work", f"goldens-{os.getpid()}")
    try:
        checksums = {
            name: {size: record(name, size, os.path.join(workdir, f"{name}-{size}"))
                   for size in ("full", "tiny")}
            for name, w in workloads.WORKLOADS.items() if w.kernel_window
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"seed": workloads.DEFAULT_SEED, "platform": workloads.platform_fingerprint(),
           "checksums": checksums}
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
