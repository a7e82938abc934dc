"""Pinned outputs: canonical encodings, saved file bytes, report JSON bytes,
CSV output bytes, shipped-spec checksums, MD5 edge cases.

These values were recorded before the MD5 kernel, the canonical encoder and
the dataset writer were rewritten; each rewrite must stay bit-exact. Outputs that pass
through the platform libm (gaussian draws, FFT twiddles) are pinned only on
the platform they were recorded on.
"""

import hashlib
import importlib
import itertools
import json
import math
import platform
import random
import pkgutil
import struct
import types

import pytest

import motifbench
from motifbench import workload
from motifbench.cli import main
from motifbench.dataio import canonical_bytes, save_dataset
from motifbench.datasets import Graph, KeyValueSet, Matrix, Tensor, TextCorpus
from motifbench.generators import gen_graph
from motifbench.kernels.graphops import pagerank
from motifbench.kernels.logic import md5_corpus, md5_digests
from motifbench.workload import execute, parse_spec_file

from .oracles import table_of_rows
from .shipped import shipped_spec_path
from .topdown_samples import golden_sample, random_valid_sample, write_sample

# ---------------------------------------------------------------------------
# canonical_bytes

PAYLOADS = {
    "text": TextCorpus(["the quick fox", "", "naïve café ☕"]),
    "table": table_of_rows(
        (("id", "integer"), ("price", "real"), ("name", "string")),
        [(1, 2.5, "a,b"), (-7, -0.0, "ünï")],
    ),
    "matrix": Matrix(2, 3, [0.0, -1.5, 1e-300, 3.25, -0.0, 12345.678]),
    "tensor": Tensor((2, 1, 2), [1.0, -2.0, 0.125, 7e10]),
    "graph": Graph(5, [(0, 1), (4, 2), (3, 3), (1, 0)], directed=True),
    "kv": KeyValueSet([("zeta", "1"), ("alpha", "two"), ("mid", "")]),
}

CANONICAL_SHA256 = {
    "text": "488d2f3088935faeaee47c45f9e3fe6d2c273f28a575cfa304ed0826743a910c",
    "table": "cafb738a624d337b7de096e53e81eee2f6793341bdb1428892788d9c0af2cfea",
    "matrix": "00261c4f6d8bec66651c87cbb8ba23f652fdb501c9cc5a426763ed8a4774f059",
    "tensor": "e7c88fbf67306fca27eeb0945878f4c6251f4df26c84a1c2d812fcdf41b876c0",
    "graph": "74aaaf27912cce7f80e49bb6b0a9c2a6491e51a2dc9a74df3fc65b0448e6250d",
    "kv": "873307d5fa380f1b7140ea9a3abef0e3f53a376463d151f39f1f0b835e336d99",
}


@pytest.mark.parametrize("kind", sorted(PAYLOADS))
def test_canonical_bytes_pinned(kind):
    digest = hashlib.sha256(canonical_bytes(PAYLOADS[kind])).hexdigest()
    assert digest == CANONICAL_SHA256[kind]


def test_canonical_bytes_edgeless_graph_layout():
    blob = canonical_bytes(Graph(3, [], directed=False))
    assert blob == b"grph\x00" + (3).to_bytes(8, "little") + b"\x00" + bytes(8)


# ---------------------------------------------------------------------------
# save_dataset file bytes

SAVED_SHA256 = {
    "text": "2d76ca5647707731d7a62511dc198149341349b7093b275975d03ea9d0c4b826",
    "table": "9d2916a14200d301d86d339c6c38034f9cf6be4e09bd7fa19463c15190cc4b88",
    "matrix": "26b6b45ed6a143d16969741edfa24ffcdbdef2ea842b5dc3a840afedd14005a8",
    "tensor": "5e6d6f2184e329e150c442fe96729955598994b13fa25e35ed53e5f6cb40de68",
    "graph": "0b2555f3f9c966917b994b350ad26d415ca27477a4823d6366ef479bcee7e143",
    "kv": "5c4c4306762319dad8ddd724278860649360c1bcfb9e84300b0475cef2d9e0e6",
}


@pytest.mark.parametrize("kind", sorted(PAYLOADS))
def test_saved_bytes_pinned(kind, tmp_path):
    path = tmp_path / kind
    save_dataset(PAYLOADS[kind], str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_SHA256[kind]


def test_saved_text_matrix_bytes_pinned(tmp_path):
    path = tmp_path / "matrix.txt"
    save_dataset(PAYLOADS["matrix"], str(path), text_matrix=True)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "87012284508d50151f5126f749a8745da043bef7cc7e6925c464422cc3a8fd84"


# A CR in a string cell has every cell of the file quoted, the numbers too.
def test_saved_table_with_a_cr_bytes_pinned(tmp_path):
    path = tmp_path / "cr.table"
    table = table_of_rows((("id", "integer"), ("price", "real"), ("name", "string")),
                          [(1, 2.5, "a\rb"), (-7, -0.0, "c"), (3, 1e16, "")])
    save_dataset(table, str(path))
    assert _sha256(path) == "1137e121118c6de7e1b389df94e278622bfe225c404b0923b6a0ff064d6d7487"


# 9000 values: the binary body spans more than one pack chunk.
@pytest.mark.parametrize("payload, expected", [
    (Matrix(3, 3000, [i / 7 - 600 for i in range(9000)]),
     "bb31d2e59f040b9a14aa04a2034c8b38aef186152e23d6474d7897eeef56dbdf"),
    (Tensor((2, 3, 1500), [(-1) ** i * i / 3 for i in range(9000)]),
     "1cb0d1c606df30e3bbe5e813b6cbb5edb56092b3658e59710279b84083fe5197"),
])
def test_saved_bytes_pinned_across_pack_chunks(payload, expected, tmp_path):
    path = tmp_path / "big"
    save_dataset(payload, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


# ---------------------------------------------------------------------------
# report JSON bytes


def test_analyze_report_bytes_pinned(tmp_path):
    dump, out = tmp_path / "golden.csv", tmp_path / "breakdown.json"
    write_sample(golden_sample(0.229), str(dump))
    assert main(["--quiet", "analyze", "--events", str(dump), "-o", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "9936f9c3bbc007d33136138cbba2bcadbd9a5c1d280ffe2393993f7191d3d6b8"


# ---------------------------------------------------------------------------
# CSV output bytes


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_csv_bytes_pinned(tmp_path, monkeypatch):
    # Every invocation is timed at 1000 ns, so wall_ns is fixed too.
    ticks = itertools.count(0, 1000)
    monkeypatch.setattr(workload, "time", types.SimpleNamespace(perf_counter_ns=ticks.__next__))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["--quiet", "--csv", "run", "--spec", shipped_spec_path("index"),
                 "--repeat", "2", "--report", str(out)]) == 0
    assert _sha256(out) == "496073ab3c2801e78b06315ac9061ccc432f73e0fa92f8c66e6d06c2d2f5a2f8"


# A metric named with a CR has every field quoted, the float values too.
@pytest.mark.parametrize("tree, expected", [
    (None, "11bced1bbab42e9f15cc0f595436d595b2a5496ea822851533871a9b65d01401"),
    ([{"name": "A\rB", "formula": "uops_retired / meta.cycles", "expected_fraction": False}],
     "895d69cdcc6fa47ee962f35b46ab9836fdf4ab06b3181b2476aea04a7ebf658b"),
], ids=["builtin", "cr-metric"])
def test_analyze_csv_bytes_pinned(tree, expected, tmp_path):
    dump, out = tmp_path / "golden.csv", tmp_path / "flat.csv"
    write_sample(random_valid_sample(random.Random(7)), str(dump))
    argv = ["--quiet", "--csv", "analyze", "--events", str(dump), "-o", str(out)]
    if tree is not None:
        (tmp_path / "tree.json").write_text(json.dumps(tree))
        argv += ["--tree", str(tmp_path / "tree.json")]
    assert main(argv) == 0
    assert _sha256(out) == expected


def test_cluster_csv_bytes_pinned(tmp_path):
    metrics, out = tmp_path / "metrics.csv", tmp_path / "merges.csv"
    metrics.write_text("label,m0,m1,m2\na0,0,0,0\na1,0.01,0.02,0\nb0,5,5,5.5\n"
                       "b1,5.1,4.9,5\nc0,-3,2,0.125\n")
    assert main(["--quiet", "--csv", "cluster", "--metrics", str(metrics), "-o", str(out)]) == 0
    assert _sha256(out) == "afe99a52595ed7e9294cc8ac644ee00870bb67168ff1a785988e2619d14cfb14"


def test_vector_out_bytes_pinned(tmp_path):
    # The first row creates the file; the second, labelled with a CR, is
    # appended with every field quoted, and the third after it.
    out = tmp_path / "metrics.csv"
    for i, label in enumerate(("r0", "r\r1", "r2")):
        dump = tmp_path / f"d{i}.csv"
        write_sample(random_valid_sample(random.Random(i)), str(dump))
        assert main(["--quiet", "analyze", "--events", str(dump), "--label", label,
                     "--vector-out", str(out)]) == 0
    assert _sha256(out) == "133a9351516397f20dba262ff167ffc527684bbd94bf80d68f50b645c4132d1b"


# ---------------------------------------------------------------------------
# shipped specs

# Platform the goldens were recorded on; libm-dependent outputs are checked
# only there.
GOLDEN_PLATFORM = "Linux-x86_64-glibc-2.36"

SPEC_GOLDENS = {
    "index": {"posting": "2b214e3eff26e2d7", "vocab": "850237ed30a94f26"},
    "pagerank": {"ranked": "16c798306f04c465", "summary": "6331c1ff371c532a"},
    "sift-like": {"feats": "6211cffc333e42f1", "ranked": "d7bb4fbd242531ea"},
    "cnn-forward": {"norm": "581322c2a888fc7c"},
}

LIBM_SPECS = {"sift-like", "cnn-forward"}


def _platform_fingerprint() -> str:
    libc = "-".join(p for p in platform.libc_ver() if p) or "unknown-libc"
    return f"{platform.system()}-{platform.machine()}-{libc}"


@pytest.mark.parametrize("name", sorted(SPEC_GOLDENS))
def test_shipped_spec_output_checksums(name, tmp_path, monkeypatch):
    if name in LIBM_SPECS and _platform_fingerprint() != GOLDEN_PLATFORM:
        pytest.skip(f"{name} goes through libm; goldens recorded on {GOLDEN_PLATFORM}")
    monkeypatch.chdir(tmp_path)
    spec = parse_spec_file(shipped_spec_path(name))
    (report,) = execute(spec)
    got = {k: f"{v:016x}" for k, v in report.output_checksums.items()}
    assert got == SPEC_GOLDENS[name]


def _sum_312(values, start=0):
    """CPython 3.12's builtin sum() over ints and floats, transcribed: exact
    int adds until the first float, then Neumaier-compensated float adds."""
    it = iter(values)
    total = start
    for x in it:
        total = total + x
        if isinstance(total, float):
            break
    else:
        return total
    c = 0.0
    for x in it:
        if isinstance(x, float):
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total += x
    if c and math.isfinite(c):
        total += c
    return total


def test_sum_312_transcription_compensates():
    values = [1.0, 1e100, 1.0, -1e100]
    assert sum(values) == 0.0
    assert _sum_312(values) == 2.0
    assert _sum_312([1, 2, 3]) == 6


@pytest.fixture
def sum_of_python_312(monkeypatch):
    """Every motifbench module sees 3.12's compensated sum() as `sum`."""
    names = [m.name for m in pkgutil.walk_packages(motifbench.__path__, "motifbench.")]
    for name in ["motifbench"] + [n for n in names if not n.endswith("__main__")]:
        monkeypatch.setattr(importlib.import_module(name), "sum", _sum_312, raising=False)


@pytest.mark.parametrize("name", sorted(SPEC_GOLDENS))
def test_shipped_spec_output_checksums_under_python_312_sum(name, tmp_path, monkeypatch,
                                                            sum_of_python_312):
    test_shipped_spec_output_checksums(name, tmp_path, monkeypatch)


# sha256 prefix of the little-endian binary64 PageRank scores of a graph the
# size of perfbench's dag-graph workload, recorded under Python 3.11's sum().
DAG_GRAPH_PAGERANK = "b5e6c35b9016b6ec"
# The same graph with tol=1e-10: the L1 change first drops below tol in
# iteration 25 of 100, so a convergence test that stops at another iteration
# changes these bits.
DAG_GRAPH_PAGERANK_CONVERGED = "34a73687a1e5339c"


def _dag_graph_pagerank_digest(max_iters: int = 16, tol: float = 0.0) -> str:
    g = gen_graph(4096, 16384, 1, "rmat", 0.57, 0.19, 0.19, 0.05)
    scores = pagerank(g, 0.85, max_iters, tol)
    return hashlib.sha256(struct.pack(f"<{len(scores)}d", *scores)).hexdigest()[:16]


def test_dag_graph_sized_pagerank_pinned():
    assert _dag_graph_pagerank_digest() == DAG_GRAPH_PAGERANK


def test_dag_graph_sized_pagerank_under_python_312_sum(sum_of_python_312):
    assert _dag_graph_pagerank_digest() == DAG_GRAPH_PAGERANK


def test_dag_graph_sized_pagerank_to_tol_pinned():
    assert _dag_graph_pagerank_digest(100, 1e-10) == DAG_GRAPH_PAGERANK_CONVERGED


def test_dag_graph_sized_pagerank_to_tol_under_python_312_sum(sum_of_python_312):
    assert _dag_graph_pagerank_digest(100, 1e-10) == DAG_GRAPH_PAGERANK_CONVERGED


# (id, in_bytes, out_bytes) per invocation. A later repeat reuses the input
# sizes taken before the first one, so it is the one that can drift.
SPEC_RECORD_SIZES = {
    "index": [
        ("hits", 36897, 30119),
        ("vocab", 30119, 4277),
        ("digests", 36897, 23413),
        ("posting", 23413, 23413),
    ],
    "pagerank": [
        ("scores", 131094, 8213),
        ("boosted", 16426, 8213),
        ("ranked", 8213, 8213),
        ("summary", 8213, 38),
    ],
}


@pytest.mark.parametrize("name", sorted(SPEC_RECORD_SIZES))
def test_shipped_spec_record_sizes_on_a_later_repeat(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = parse_spec_file(shipped_spec_path(name))
    _, second = execute(spec, repeat=2)
    got = [(rec.id, rec.in_bytes, rec.out_bytes) for rec in second.invocations]
    assert got == SPEC_RECORD_SIZES[name]


# ---------------------------------------------------------------------------
# MD5 edge cases

# Lengths on either side of the padding boundaries: 55 bytes is the longest
# message that pads within one block, 56 spills into a second, 64 and 128 fill
# whole blocks, and 119/120 are the 55/56 boundary one block later.
@pytest.mark.parametrize("n", [55, 56, 63, 64, 119, 120, 128])
def test_md5_block_boundary_lengths(n):
    data = bytes((7 * i + 3) & 0xFF for i in range(n))
    assert md5_digests([data]) == [hashlib.md5(data).digest()]
    assert md5_digests([b"\xff" * n]) == [hashlib.md5(b"\xff" * n).digest()]


def test_md5_corpus_multibyte_utf8():
    lines = ["naïve café ☕", "日本語テキスト", "x" * 60]
    assert md5_corpus(TextCorpus(lines)).documents == (
        "ead149e8ab3ebc8c0dfbac046470cae6",
        "291a033f45232d75458716bcc03d90a0",
        "1198000c11968f9368e02d6da57ec147",
    )


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_md5_accepts_buffer_inputs(wrap):
    data = b"message digest" * 9
    assert md5_digests([wrap(data)]) == [hashlib.md5(data).digest()]
