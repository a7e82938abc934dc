"""motifbench's benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; motifbench is imported from the
checkout's `src` directory, so nothing needs installing. The run is a closed
loop with one client: CLI commands go one after another through
`motifbench.cli.main`, in this process, with no extra threads.

--trace 0 prints the end-to-end metrics. Set-up is timed in fresh
interpreters (so it includes importing the package) and the measured commands
run untraced. --trace 1 prints the per-layer metrics instead: it sets up once
with every layer wrapped (see tracing.py), then alternates untraced and traced
samples; the untraced ones give the tracing overhead and the process CPU and
GC figures.

Every reported time is rescaled to a fixed machine speed by a reference loop
timed next to it (see calibration.py); raw wall times go to the result file.

Every command's output is checked. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give each
timing's median, tail percentile and sample count. A result file with the
same figures and the environment fingerprint goes to perfbench/_results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from calibration import REFERENCE_S, reference_loop_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, "_work")
RESULTS_ROOT = os.path.join(HERE, "_results")

SETUP_RUNS = 11  # timed set-ups per run, after one untimed warm-up
MIN_SAMPLES = 5
HARD_LIMIT_S = 120.0  # stop sampling past this even with fewer samples

END_TO_END = {"run_s": "s", "setup_s": "s", "measured_s": "s", "peak_rss_mb": "MB"}
MOTIFS = ("logic.md5", "transform.convolution", "transform.fft2d", "transform.ifft2d",
          "graph.pagerank", "graph.connected_components", "matrix.fully_connected",
          "matrix.multiply")


def per_layer_units(families) -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    names = ["kernels.total_s", *(f"kernels.{f}_s" for f in families), "kernels.in_bytes",
             *(f"kernels.{m}.ns_per_byte" for m in MOTIFS),
             "generators.materialize_s",
             *(f"generators.{k}_s" for k in ("text", "graph", "matrix", "tensor")),
             "generators.bytes", "generators.MBps", "rng.draws",
             "dataio.size_calls", "dataio.size_s", "dataio.checksum_calls", "dataio.checksum_s",
             "dataio.canonical_MBps", "dataio.load_s", "dataio.load_bytes", "dataio.save_s",
             "dataio.save_bytes",
             "workload.parse_s", "workload.validate_calls", "workload.validate_s",
             "workload.execute_s", "workload.overhead_s", "workload.overhead_per_kernel",
             "cli.self_s",
             "topdown.load_sample_s", "topdown.samples", "topdown.evaluate_tree_s",
             "topdown.other_s",
             "similarity.read_vectors_s", "similarity.standardize_s", "similarity.pca_s",
             "similarity.hcluster_s", "similarity.other_s", "similarity.vectors",
             "process.cpu_s", "process.gc_collections",
             "trace.overhead_frac", "trace.unattributed_s"]
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("ns_per_byte"):
            units[name] = "ns/B"
        elif name.endswith("MBps"):
            units[name] = "MB/s"
        elif name.endswith("bytes"):
            units[name] = "B"
        elif name in ("workload.overhead_per_kernel", "trace.overhead_frac"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


# ---------------------------------------------------------------------------
# statistics and environment


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (the median
    when there are fewer than twenty samples), and its nearest-rank value."""
    n = len(values)
    pct = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10:
            pct = p
    ordered = sorted(values)
    return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]


def timing(values: list[float]) -> dict:
    pct, value = tail(values)
    return {"median": statistics.median(values), "percentile": pct, "percentile_value": value,
            "n": len(values), "samples": values}


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# measurement


class Sample:
    """One sample: raw wall and CPU seconds, GC collections, the trace's raw
    totals (traced samples only), the per-repeat kernel totals motifbench
    reported (ns), and the factor that rescales its times to the reference
    machine speed."""

    __slots__ = ("wall", "cpu", "gc", "raw", "measured", "factor")

    def __init__(self, wall, cpu, gcs, raw, measured):
        self.wall, self.cpu, self.gc, self.raw, self.measured = wall, cpu, gcs, raw, measured
        self.factor = 1.0


def _gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def run_sample(ctx, workload, tracer=None) -> Sample:
    """Run one sample's commands back to back, then check their outputs."""
    commands = workload.commands(ctx)
    first_measured = len(ctx.measured_ns)
    gc.collect()
    outcomes = []
    wall = 0.0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    cpu0, gc0 = time.process_time(), _gc_collections()
    try:
        for argv, _ in commands:
            try:
                rc, seconds, err = ctx.call(argv)
            except Exception:  # a crash inside the program fails this command only
                rc, seconds, err = None, 0.0, traceback.format_exc(limit=3)
            wall += seconds
            outcomes.append((rc, err))
    finally:
        cpu, gcs = time.process_time() - cpu0, _gc_collections() - gc0
        if tracer is not None:
            tracer.remove()
    raw = tracer.snapshot() if tracer is not None else None
    for (argv, check), (rc, err) in zip(commands, outcomes):
        if rc != 0:
            ctx.fail(f"{argv[1]} exited {rc}: {err}")
            continue
        try:
            problems = check()
        except Exception as exc:  # an unreadable output is a wrong output
            problems = [f"output check raised {exc!r}"]
        if problems:
            ctx.fail(f"{argv[1]}: " + "; ".join(problems))
    return Sample(wall, cpu, gcs, raw, ctx.measured_ns[first_measured:])


def sample_loop(ctx, workload, seconds: float, tracers: list) -> list[list[Sample]]:
    """Samples for `seconds`, one per entry of `tracers` (None: untraced) in
    turn; each is rescaled by the reference loop timed before and after it."""
    run_sample(ctx, workload)  # warm-up: fills caches, not timed
    start = time.perf_counter()
    runs: list[list[Sample]] = [[] for _ in tracers]
    reference = reference_loop_s(ctx.workdir, workload.reference_io)
    while _sample_until(start + seconds, start + HARD_LIMIT_S, len(runs[-1])):
        for samples, tracer in zip(runs, tracers):
            sample = run_sample(ctx, workload, tracer)
            after = reference_loop_s(ctx.workdir, workload.reference_io)
            sample.factor = 2 * REFERENCE_S / (reference + after)
            reference = after
            samples.append(sample)
    return runs


def _setup_child(workload, seed: int, size: str, workdir: str, ctx) -> tuple | None:
    """One set-up in a fresh interpreter: (wall seconds, rescaled seconds)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_step.py"), workload.name, str(seed), size,
         workdir, str(int(workload.reference_io))],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        ctx.attempted += 1
        ctx.fail(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    ctx.attempted += doc["attempted"]
    ctx.failed += doc["failed"]
    ctx.problems.extend(doc["problems"][: max(0, 20 - len(ctx.problems))])
    return doc["setup_s"], doc["setup_s"] * REFERENCE_S / doc["reference_s"]


def _sample_until(deadline: float, hard_deadline: float, count: int) -> bool:
    now = time.perf_counter()
    return now < deadline or (count < MIN_SAMPLES and now < hard_deadline)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            goldens: dict | None = None) -> dict:
    """Run one workload; returns the result document (metrics, timings,
    fingerprint, failures)."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    load_before = loadavg()
    try:
        if not trace:
            ctx = workloads.Context(name, "", seed, size, goldens)
            setups = []
            for k in range(SETUP_RUNS + 1):
                ctx.workdir = os.path.join(workdir, f"setup{k}")
                result = _setup_child(workload, seed, size, ctx.workdir, ctx)
                if k and result is not None:
                    setups.append(result)
            samples, = sample_loop(ctx, workload, seconds, [None])
            run_s = [s.wall * s.factor for s in samples]
            measured = ([ns / 1e9 * s.factor for s in samples for ns in s.measured]
                        if workload.kernel_window else run_s)
            # A failed set-up is already counted; 0 keeps the metric present.
            timings = {"run_s": timing(run_s),
                       "setup_s": timing([scaled for _, scaled in setups] or [0.0]),
                       "measured_s": timing(measured),
                       "run_wall_s": timing([s.wall for s in samples]),
                       "setup_wall_s": timing([wall for wall, _ in setups] or [0.0])}
            metrics = {key: timings[key]["median"] for key in ("run_s", "setup_s", "measured_s")}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            ctx = workloads.Context(name, os.path.join(workdir, "traced"), seed, size, goldens)
            os.makedirs(ctx.workdir)
            tracer = tracing.Tracer()
            before = reference_loop_s(ctx.workdir, workload.reference_io)
            tracer.install()
            try:
                workload.setup(ctx)
            finally:
                tracer.remove()
            setup = Sample(0.0, 0.0, 0, tracer.snapshot(), [])
            after = reference_loop_s(ctx.workdir, workload.reference_io)
            setup.factor = 2 * REFERENCE_S / (before + after)
            plain, traced = sample_loop(ctx, workload, seconds, [None, tracer])
            for sample in traced:
                check_coverage(ctx, sample)
            metrics = layer_metrics(setup, plain, traced)
            timings = {"untraced_run_s": timing([s.wall * s.factor for s in plain]),
                       "traced_run_s": timing([s.wall * s.factor for s in traced]),
                       "untraced_run_wall_s": timing([s.wall for s in plain])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = END_TO_END if not trace else per_layer_units(tracing.FAMILIES)
    return {
        "workload": name,
        "trace": int(trace),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "timings": timings,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "problems": ctx.problems,
        "notes": ctx.notes,
        "fingerprint": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "libm_platform": workloads.platform_fingerprint(),
            "git_commit": git_commit(),
            "seed": seed,
            "size": size,
            "seconds": seconds,
            "repeat": workloads.SIZES[size][name].get("repeat"),
            "reference_s": REFERENCE_S,
            "loadavg_before": load_before,
            "loadavg_after": loadavg(),
        },
    }


def check_coverage(ctx, sample: Sample):
    """Layer self times must add up to the sample's wall time, leaving only the
    small unattributed remainder (the root wrapper's own cost); a negative self
    time means spans overlap."""
    self_ns = {k: v for k, v in sample.raw.items() if k.startswith("self.")}
    wall_ns = sample.wall * 1e9
    unattributed = wall_ns - sum(self_ns.values())
    worst = min(self_ns.items(), key=lambda kv: kv[1])
    if worst[1] < -0.5e6:
        ctx.fail(f"trace coverage: {worst[0]} has self time {worst[1] / 1e6:.3f} ms")
    elif not -0.5e6 <= unattributed <= 0.05 * wall_ns + 1e6:
        ctx.fail(f"trace coverage: {unattributed / 1e6:.3f} ms of {wall_ns / 1e6:.3f} ms "
                 "unattributed")


def _rescaled(sample: Sample) -> dict:
    """A traced sample's raw totals with every time rescaled."""
    return {k: v * sample.factor if _is_time(k) else v for k, v in sample.raw.items()}


def _is_time(key: str) -> bool:
    return key.startswith(("self.", "total.", "motif_ns.")) or key == "workload.overhead_ns"


def layer_metrics(setup: Sample, plain: list[Sample], traced: list[Sample]) -> dict:
    """Per-layer figures for one set-up plus one sample (the median traced
    sample, key by key), with times rescaled to the reference speed."""
    import tracing

    setup_raw = _rescaled(setup)
    traced_raw = [_rescaled(s) for s in traced]
    keys = set(setup_raw).union(*traced_raw)
    raw = {k: setup_raw.get(k, 0) + statistics.median(r.get(k, 0) for r in traced_raw)
           for k in keys}

    def self_s(layer):
        return raw.get(f"self.{layer}", 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    kernels = {f: self_s(f"kernels.{f}") for f in tracing.FAMILIES}
    m["kernels.total_s"] = sum(kernels.values())
    m.update({f"kernels.{f}_s": v for f, v in kernels.items()})
    m["kernels.in_bytes"] = raw.get("kernels.in_bytes", 0)
    for motif in MOTIFS:
        m[f"kernels.{motif}.ns_per_byte"] = ratio(raw.get(f"motif_ns.{motif}", 0),
                                                  raw.get(f"motif_bytes.{motif}", 0))
    m["generators.materialize_s"] = raw.get("total.generators.materialize", 0) / 1e9
    for kind in ("text", "graph", "matrix", "tensor"):
        m[f"generators.{kind}_s"] = self_s(f"generators.{kind}")
    m["generators.bytes"] = raw.get("generators.bytes", 0)
    m["generators.MBps"] = ratio(m["generators.bytes"] / 1e6, m["generators.materialize_s"])
    m["rng.draws"] = raw.get("rng.draws", 0)
    m["dataio.size_calls"] = raw.get("dataio.size", 0)
    m["dataio.size_s"] = self_s("dataio.size")
    m["dataio.checksum_calls"] = raw.get("dataio.checksum", 0)
    m["dataio.checksum_s"] = self_s("dataio.checksum")
    m["dataio.canonical_MBps"] = ratio(raw.get("dataio.size_bytes", 0) / 1e6, m["dataio.size_s"])
    m["dataio.load_s"] = self_s("dataio.load")
    m["dataio.load_bytes"] = raw.get("dataio.load_bytes", 0)
    m["dataio.save_s"] = self_s("dataio.save")
    m["dataio.save_bytes"] = raw.get("dataio.save_bytes", 0)
    m["workload.parse_s"] = self_s("workload.parse")
    m["workload.validate_calls"] = raw.get("workload.validate", 0)
    m["workload.validate_s"] = self_s("workload.validate")
    m["workload.execute_s"] = raw.get("total.workload.execute", 0) / 1e9
    m["workload.overhead_s"] = raw.get("workload.overhead_ns", 0) / 1e9
    m["workload.overhead_per_kernel"] = ratio(m["workload.overhead_s"], m["kernels.total_s"])
    m["cli.self_s"] = self_s("cli")
    m["topdown.load_sample_s"] = self_s("topdown.load_sample")
    m["topdown.samples"] = raw.get("topdown.load_sample", 0)
    m["topdown.evaluate_tree_s"] = self_s("topdown.evaluate_tree")
    m["topdown.other_s"] = self_s("topdown.other")
    for part in ("read_vectors", "standardize", "pca", "hcluster", "other"):
        m[f"similarity.{part}_s"] = self_s(f"similarity.{part}")
    m["similarity.vectors"] = raw.get("similarity.vectors", 0)
    m["process.cpu_s"] = statistics.median(s.cpu * s.factor for s in plain)
    m["process.gc_collections"] = statistics.median(s.gc for s in plain)
    traced_wall = statistics.median(s.wall * s.factor for s in traced)
    m["trace.overhead_frac"] = traced_wall / statistics.median(
        s.wall * s.factor for s in plain) - 1
    m["trace.unattributed_s"] = statistics.median(
        s.factor * (s.wall - sum(v for k, v in s.raw.items() if k.startswith("self.")) / 1e9)
        for s in traced)
    return m


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "motifbench", "cli.py")):
        print(f"error: motifbench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(RESULTS_ROOT, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(RESULTS_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                      f"{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    for key, t in doc["timings"].items():
        print(f"{key:<16} median {t['median']:.6f} s, p{t['percentile']:g} "
              f"{t['percentile_value']:.6f} s, n={t['n']}")
    for key, m in doc["metrics"].items():
        print(f"{key:<44} {m['value']:.6g} {m['unit']}")
    for problem in doc["problems"]:
        print(f"FAILED: {problem}")
    for note in doc["notes"]:
        print(f"note: {note}")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
