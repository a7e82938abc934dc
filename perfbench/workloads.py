"""The benchmark's four workloads: how each is set up, which CLI commands one
sample runs, and how every command's output is checked.

Workloads reach motifbench only through `motifbench.cli.main`, the entry point
a user runs. All inputs derive from the workload seed given to the benchmark.
Output checks happen after the timed window and count against the command
they check.

Importing this module imports motifbench, so entry scripts put the checkout's
`src` directory on `sys.path` first.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import eventgen
from motifbench import cli
from motifbench.dataio import load_dataset
from motifbench.generators import materialize
from motifbench.workload import parse_spec_file

DEFAULT_SEED = 1
GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

# Outputs whose bits pass through the platform libm (gaussian draws use log,
# cos and sqrt; FFT twiddles use cos and sin; batch_norm uses sqrt). Their
# goldens hold only on the platform they were recorded on.
LIBM_OUTPUTS = {"dag-numeric": ("norm", "ranked")}

SIZES = {
    "full": {
        "dag-text": dict(bytes=98304, repeat=2),
        "dag-graph": dict(vertices=4096, edges=16384, iters=16, repeat=3),
        "dag-numeric": dict(batch=4, side=16, plane=64, repeat=3),
        "characterize": dict(per_archetype=16),
    },
    "tiny": {
        "dag-text": dict(bytes=4096, repeat=2),
        "dag-graph": dict(vertices=256, edges=1024, iters=4, repeat=2),
        "dag-numeric": dict(batch=2, side=8, plane=16, repeat=2),
        "characterize": dict(per_archetype=2),
    },
}


def platform_fingerprint() -> str:
    """What libm-dependent goldens are tied to: OS, CPU architecture and C
    library."""
    libc = "-".join(p for p in platform.libc_ver() if p) or "unknown-libc"
    return f"{platform.system()}-{platform.machine()}-{libc}"


def derive_seed(seed: int, workload: str, name: str) -> int:
    """Independent 31-bit generator seed for one input of one workload."""
    digest = hashlib.sha256(f"{workload}/{name}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Context:
    """State of one benchmark run of one workload."""

    name: str
    workdir: str
    seed: int
    size: str = "full"
    goldens: dict | None = None
    reference: dict | None = None  # output checksums of the first checked command
    measured_ns: list[int] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    expected: dict | None = None
    attempted: int = 0  # CLI commands run
    failed: int = 0  # commands that exited non-zero or produced a wrong output
    problems: list[str] = field(default_factory=list)

    def call(self, argv: list[str]) -> tuple[int, float, str]:
        """Run one CLI command in-process: (exit code, wall seconds, stderr)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
        return rc, wall, err.getvalue().strip()

    def fail(self, problem: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def params(self) -> dict:
        return SIZES[self.size][self.name]

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def seed_of(self, name: str) -> int:
        return derive_seed(self.seed, self.name, name)


# A command to time and the check to run on its outputs afterwards; the check
# returns a list of problems, empty when the output is right.
Command = tuple[list[str], Callable[[], list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Context], None]  # writes inputs and spec; may run CLI commands
    commands: Callable[[Context], list[Command]]  # one sample; prepares its files
    kernel_window: bool  # whether motifbench reports a kernel-only time
    reference_io: bool  # whether its calibration loop includes JSON and file I/O


# ---------------------------------------------------------------------------
# DAG workloads: one `run --spec ... --repeat R --report ...` per sample


def _text_spec(ctx: Context) -> str:
    out = ctx.path("out")
    return f'''workload "dag-text"
input docs : text @ "corpus.text"
node hits    = set.grep(docs, pattern="the")
node vocab   = statistic.wordcount(hits)
node digests = logic.md5(docs)
node posting = sort.sort(digests, key=0)
node sample  = sampling.random_sample(docs, fraction=0.25, seed={ctx.seed_of("sample")})
node ordered = sort.sort(sample, key=0)
node tally   = statistic.count(ordered)
output vocab   @ "{out}/vocab.kv"
output posting @ "{out}/posting.text"
output tally   @ "{out}/tally.kv"
'''


def _graph_spec(ctx: Context) -> str:
    p, out = ctx.params, ctx.path("out")
    return f'''workload "dag-graph"
input web = generate.graph(vertices={p["vertices"]}, edges={p["edges"]}, model=rmat, a=0.57, b=0.19, c=0.19, d=0.05, seed={ctx.seed_of("web")})
node scores  = graph.pagerank(web, damping=0.85, max_iters={p["iters"]}, tol=0)
node comps   = graph.connected_components(web)
node boosted = matrix.hadamard(scores, scores)
node ranked  = sort.sort(boosted, key=0)
node summary = statistic.count(ranked)
output ranked  @ "{out}/ranked.matrix"
output summary @ "{out}/summary.kv"
output comps   @ "{out}/comps.table"
'''


def _numeric_spec(ctx: Context) -> str:
    p, out, s = ctx.params, ctx.path("out"), ctx.seed_of
    features = ((p["side"] - 2) // 2) ** 2 * 8
    half = p["plane"] // 2
    return f'''workload "dag-numeric"
input imgs = generate.tensor(shape={p["batch"]}x{p["side"]}x{p["side"]}x3, dist=uniform, lo=-1, hi=1, seed={s("imgs")})
input filt = generate.tensor(shape=3x3x3x8, dist=gaussian, mu=0, sigma=0.25, seed={s("filt")})
input w    = generate.matrix(rows={features}, cols=16, dist=gaussian, mu=0, sigma=0.1, seed={s("w")})
input bias = generate.tensor(shape=16, dist=uniform, lo=0, hi=0.1, seed={s("bias")})
input img  = generate.matrix(rows={p["plane"]}, cols={p["plane"]}, dist=uniform, lo=0, hi=255, seed={s("img")})
input proj = generate.matrix(rows={half}, cols={half}, dist=gaussian, mu=0, sigma=1, seed={s("proj")})
node conv    = transform.convolution(imgs, filt, stride=1, padding=valid)
node act     = logic.relu(conv)
node pooled  = sampling.max_pool(act, window=2, stride=2)
node dense   = matrix.fully_connected(pooled, w, bias)
node norm    = statistic.batch_norm(dense, axis=0, epsilon=1e-6)
node freq    = transform.fft2d(img)
node smooth  = transform.ifft2d(freq)
node residue = matrix.subtract(img, smooth)
node octave  = sampling.downsample(residue, factor=2)
node mixed   = matrix.multiply(octave, proj)
node ranked  = sort.sort(mixed, key=0)
output norm   @ "{out}/norm.tensor"
output ranked @ "{out}/ranked.matrix"
'''


_SPECS = {"dag-text": _text_spec, "dag-graph": _graph_spec, "dag-numeric": _numeric_spec}


def _dag_setup(ctx: Context):
    if ctx.name == "dag-text":
        argv = ["--quiet", "generate", "text", "--bytes", str(ctx.params["bytes"]),
                "--rng-seed", str(ctx.seed_of("corpus")), "-o", ctx.path("corpus.text")]
        rc, _, err = ctx.call(argv)
        if rc != 0:
            ctx.fail(f"generate text exited {rc}: {err}")
    with open(ctx.path("workload.spec"), "w", encoding="utf-8") as fh:
        fh.write(_SPECS[ctx.name](ctx))


def _dag_commands(ctx: Context) -> list[Command]:
    report = ctx.path("report.json")
    if os.path.exists(report):
        os.remove(report)
    argv = ["--quiet", "run", "--spec", ctx.path("workload.spec"),
            "--repeat", str(ctx.params["repeat"]), "--report", report]
    return [(argv, lambda: _check_dag(ctx, report))]


def _check_dag(ctx: Context, report: str) -> list[str]:
    with open(report, encoding="utf-8") as fh:
        repeats = json.load(fh)["repeats"]
    if len(repeats) != ctx.params["repeat"]:
        return [f"report has {len(repeats)} repeats, asked for {ctx.params['repeat']}"]
    ctx.measured_ns.extend(rep["total_ns"] for rep in repeats)
    sums = [rep["output_checksums"] for rep in repeats]
    if any(s != sums[0] for s in sums):
        return [f"output checksums differ across repeats: {sums}"]
    if ctx.reference is None:
        ctx.reference = sums[0]
        return _ORACLES[ctx.name](ctx) + _check_goldens(ctx)
    if sums[0] != ctx.reference:
        return [f"output checksums {sums[0]} differ from the run's first {ctx.reference}"]
    return []


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _check_goldens(ctx: Context) -> list[str]:
    """At the default seed, compare with the recorded checksums."""
    goldens = ctx.goldens if ctx.goldens is not None else load_goldens()
    if ctx.seed != goldens["seed"]:
        return []
    expected = goldens["checksums"][ctx.name][ctx.size]
    fingerprint = platform_fingerprint()
    problems = []
    for output, value in sorted(expected.items()):
        if output in LIBM_OUTPUTS.get(ctx.name, ()) and fingerprint != goldens["platform"]:
            ctx.notes.append(f"golden for {output} skipped: recorded on {goldens['platform']}, "
                             f"running on {fingerprint}")
        elif ctx.reference.get(output) != value:
            problems.append(f"{output}: checksum {ctx.reference.get(output)} != golden {value}")
    return problems


def _load(path: str):
    return load_dataset(path).payload


def _text_oracle(ctx: Context) -> list[str]:
    lines = _load(ctx.path("corpus.text")).documents
    problems = []
    digests = sorted(hashlib.md5(line.encode("utf-8")).hexdigest() for line in lines)
    if list(_load(ctx.path("out", "posting.text")).documents) != digests:
        problems.append("posting is not the sorted MD5 digests of the corpus")
    counts = Counter(tok for line in lines if "the" in line for tok in line.split())
    if dict(_load(ctx.path("out", "vocab.kv")).entries) != {k: str(v) for k, v in counts.items()}:
        problems.append("vocab is not the word count of the lines containing 'the'")
    tally = int(_load(ctx.path("out", "tally.kv")).entries["count"])
    if not 0 < tally < len(lines):
        problems.append(f"sample of {tally} lines out of {len(lines)}")
    return problems


def _graph_oracle(ctx: Context) -> list[str]:
    genspec = parse_spec_file(ctx.path("workload.spec")).inputs[0].genspec
    graph = materialize(genspec).payload
    parent = list(range(graph.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    problems = []
    comps = _load(ctx.path("out", "comps.table")).rows
    if [c for _, c in comps] != [find(v) for v in range(graph.vertex_count)]:
        problems.append("component labels differ from a union-find oracle")
    ranked = _load(ctx.path("out", "ranked.matrix"))
    col = list(ranked.data)
    if ranked.rows != graph.vertex_count or col != sorted(col):
        problems.append("ranked scores are not one sorted row per vertex")
    if abs(math.fsum(math.sqrt(x) for x in col) - 1.0) > 1e-9:
        problems.append("pagerank scores do not sum to 1")
    if dict(_load(ctx.path("out", "summary.kv")).entries) != {"count": str(graph.vertex_count)}:
        problems.append("summary count is not the vertex count")
    return problems


def _numeric_oracle(ctx: Context) -> list[str]:
    problems = []
    norm = _load(ctx.path("out", "norm.tensor"))
    batch, width = norm.shape
    for j in range(width):
        column = norm.data[j::width]
        if abs(math.fsum(column) / batch) > 1e-9:
            problems.append(f"batch_norm feature {j} has nonzero mean")
            break
    ranked = _load(ctx.path("out", "ranked.matrix"))
    keys = [ranked.data[i * ranked.cols] for i in range(ranked.rows)]
    if keys != sorted(keys):
        problems.append("ranked rows are not sorted by column 0")
    # fft2d followed by ifft2d reconstructs the plane, so the residue (and any
    # product of it) is rounding noise.
    if max(abs(x) for x in ranked.data) > 1e-6:
        problems.append("FFT round trip left a residue above 1e-6")
    return problems


_ORACLES = {"dag-text": _text_oracle, "dag-graph": _graph_oracle, "dag-numeric": _numeric_oracle}


# ---------------------------------------------------------------------------
# characterize: analyze once per synthetic event dump, then cluster


def _characterize_setup(ctx: Context):
    rng = random.Random(ctx.seed_of("profiles"))
    groups = [a for a in eventgen.ARCHETYPES for _ in range(ctx.params["per_archetype"])]
    rng.shuffle(groups)
    os.makedirs(ctx.path("events"), exist_ok=True)
    labels, level1 = [], []
    for i, group in enumerate(groups):
        label = f"p{i:03d}-{group}"
        width, cycles, events = eventgen.profile(group, rng)
        eventgen.write_dump(ctx.path("events", f"{label}.csv"), label, width, cycles, events)
        labels.append(label)
        level1.append(eventgen.level1_fractions(width, cycles, events))
    expected = {"labels": labels, "level1": level1,
                "clusters": len(eventgen.ARCHETYPES),
                "assignments": eventgen.first_leaf_order(groups)}
    with open(ctx.path("expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh)


def _characterize_commands(ctx: Context) -> list[Command]:
    if ctx.expected is None:
        with open(ctx.path("expected.json"), encoding="utf-8") as fh:
            ctx.expected = json.load(fh)
    exp = ctx.expected
    os.makedirs(ctx.path("out"), exist_ok=True)
    metrics, clusters = ctx.path("out", "metrics.csv"), ctx.path("out", "clusters.json")
    for stale in [metrics, clusters] + [ctx.path("out", f"{lb}.json") for lb in exp["labels"]]:
        if os.path.exists(stale):
            os.remove(stale)
    commands: list[Command] = []
    for label, level1 in zip(exp["labels"], exp["level1"]):
        breakdown = ctx.path("out", f"{label}.json")
        argv = ["--quiet", "analyze", "--events", ctx.path("events", f"{label}.csv"),
                "-o", breakdown, "--vector-out", metrics]
        commands.append((argv, lambda b=breakdown, e=level1: _check_breakdown(b, e)))
    argv = ["--quiet", "cluster", "--metrics", metrics, "--cut", str(exp["clusters"]),
            "-o", clusters]
    commands.append((argv, lambda: _check_clusters(clusters, exp)))
    return commands


def _check_breakdown(path: str, expected: dict) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        nodes = json.load(fh)["breakdown"]["children"]
    got = {n["name"]: n["fraction"] for n in nodes}
    return [f"{path}: {name} = {got.get(name)}, expected {value}"
            for name, value in expected.items()
            if name not in got or abs(got[name] - value) > 1e-9]


def _check_clusters(path: str, expected: dict) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["labels"] != expected["labels"]:
        return ["cluster labels are not the analyzed profiles in order"]
    if doc["cut"]["assignments"] != expected["assignments"]:
        return [f"cluster assignments {doc['cut']['assignments']} != archetypes "
                f"{expected['assignments']}"]
    return []


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dag-text", _dag_setup, _dag_commands, True, False),
        Workload("dag-graph", _dag_setup, _dag_commands, True, False),
        Workload("dag-numeric", _dag_setup, _dag_commands, True, False),
        Workload("characterize", _characterize_setup, _characterize_commands, False, True),
    )
}
