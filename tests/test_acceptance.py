"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import hashlib
import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from motifbench.cli import main as cli_main
from motifbench.dataio import checksum_payload, load_dataset
from motifbench.datasets import Graph, KeyValueSet, Matrix, Tensor, TextCorpus
from motifbench.generators import (
    RMAT_DEFAULT,
    gen_graph,
    gen_matrix,
    gen_table,
    gen_text,
)
from motifbench.kernels.graphops import connected_components, pagerank
from motifbench.kernels.logic import elementwise_activation, md5_digests
from motifbench.kernels.matrixops import fully_connected, mat_elementwise, matmul
from motifbench.kernels.sampling import downsample, dropout, pool, random_sample
from motifbench.kernels.sets import (
    column_index,
    filter_rows,
    grep,
    project,
    set_op,
    table_union,
)
from motifbench.kernels.sorting import sort_records
from motifbench.kernels.statistic import (
    aggregate,
    batch_norm,
    cosine_norm,
    count_records,
    wordcount,
)
from motifbench.kernels.transform import (
    _fft2d_rows,
    _fft_rows,
    convolution,
    fft,
)
from motifbench.similarity import cut_dendrogram, hcluster, pca, standardize
from motifbench.topdown import (
    MetricVector,
    builtin_tree,
    evaluate_tree,
)
from motifbench.workload import execute, parse_spec_file

from .oracles import (
    dense_pagerank,
    naive_convolution,
    naive_dft,
    naive_dft2d,
    nested_loop_set_op,
    scan_grep,
    stable_mergesort,
    table_of_rows,
    tally_wordcount,
    triple_loop_matmul,
    union_find_components,
)
from .shipped import SHIPPED_SPECS, shipped_spec_path
from .topdown_samples import find_node, golden_sample, random_valid_sample, write_sample

CASES = 100  # randomized instances per kernel


def _done(n, name):
    print(f"\nACCEPTANCE {n} PASS: {name}")


# ---------------------------------------------------------------------------
# 1. kernel oracle suite


def test_criterion_1_kernel_oracle_suite():
    start = time.monotonic()
    rng = random.Random(0xC0FFEE)

    for _ in range(CASES):
        lines = ["".join(rng.choice("abcxyz ") for _ in range(rng.randint(0, 20)))
                 for _ in range(rng.randint(0, 60))]
        sorted_corpus = sort_records(TextCorpus([l.replace(" ", "_") for l in lines]), key=0)
        assert list(sorted_corpus.documents) == [
            l.replace(" ", "_") for l in stable_mergesort(lines, key=lambda s: s)
        ]

        pattern = rng.choice(["ab", "xy", "c"])
        clean = [l.replace(" ", "_") for l in lines]
        assert list(grep(TextCorpus(clean), pattern).documents) == scan_grep(clean, pattern)

        a = KeyValueSet({f"k{rng.randint(0, 40)}": "a" for _ in range(rng.randint(0, 30))})
        b = KeyValueSet({f"k{rng.randint(0, 40)}": "b" for _ in range(rng.randint(0, 30))})
        op = rng.choice(["union", "intersect", "difference"])
        assert set_op(a, b, op).entries == nested_loop_set_op(a.entries, b.entries, op)

        rows = [(i, rng.randint(-50, 50)) for i in range(rng.randint(1, 80))]
        table = table_of_rows([("id", "integer"), ("v", "integer")], rows)
        pivot = rng.randint(-50, 50)
        got = filter_rows(table, "v", "gt", str(pivot)).rows
        assert got == tuple(r for r in rows if r[1] > pivot)

        words = [f"w{rng.randint(0, 30)}" for _ in range(rng.randint(0, 200))]
        corpus = TextCorpus([" ".join(words[i:i + 8]) for i in range(0, len(words), 8)])
        assert wordcount(corpus).entries == {
            k: str(v) for k, v in tally_wordcount(list(corpus.documents)).items()
        }

        groups = [(f"g{rng.randint(0, 8)}", rng.uniform(-5, 5)) for _ in range(rng.randint(1, 60))]
        gt = table_of_rows([("g", "string"), ("v", "real")], groups)
        got_avg = {r[0]: r[1] for r in aggregate(gt, "g", "avg", "v").rows}
        sums, counts = {}, {}
        for g, v in groups:
            sums[g] = sums.get(g, 0.0) + v
            counts[g] = counts.get(g, 0) + 1
        for g in sums:
            assert got_avg[g] == pytest.approx(sums[g] / counts[g], rel=1e-12)

        n, k, m = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
        am = Matrix(n, k, [rng.uniform(-3, 3) for _ in range(n * k)])
        bm = Matrix(k, m, [rng.uniform(-3, 3) for _ in range(k * m)])
        got_mm = matmul(am, bm).data
        want_mm = triple_loop_matmul(n, k, am.data, m, bm.data)
        assert max(abs(x - y) for x, y in zip(got_mm, want_mm)) < 1e-9

        size = 1 << rng.randint(0, 7)
        seq = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)]
        for inverse in (False, True):
            got_f = _fft_rows(seq, size, inverse)
            want_f = naive_dft(seq, inverse=inverse)
            assert max(abs(x - y) for x, y in zip(got_f, want_f)) < 1e-9

        b_, h, w, cin, cout = 1, rng.randint(2, 5), rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 2)
        kh, kw = rng.randint(1, h), rng.randint(1, w)
        x = Tensor((b_, h, w, cin), [rng.uniform(-1, 1) for _ in range(b_ * h * w * cin)])
        kk = Tensor((kh, kw, cin, cout), [rng.uniform(-1, 1) for _ in range(kh * kw * cin * cout)])
        got_c = convolution(x, kk, stride=1, padding="valid")
        oh, ow = h - kh + 1, w - kw + 1
        want_c = naive_convolution(x.shape, x.data, kk.shape, kk.data, 1, 0, 0, oh, ow)
        assert max(abs(p - q) for p, q in zip(got_c.data, want_c)) < 1e-9

        nverts = rng.randint(2, 60)
        edges = [(rng.randrange(nverts), rng.randrange(nverts))
                 for _ in range(rng.randint(0, 2 * nverts))]
        assert connected_components(Graph(nverts, edges)) == union_find_components(nverts, edges)

        pr_n = rng.randint(2, 25)
        pr_edges = [(rng.randrange(pr_n), rng.randrange(pr_n)) for _ in range(rng.randint(1, 60))]
        got_pr = pagerank(Graph(pr_n, pr_edges), damping=0.85, max_iters=80, tol=0.0)
        want_pr = dense_pagerank(pr_n, pr_edges, 0.85, 80)
        assert max(abs(p - q) for p, q in zip(got_pr, want_pr)) < 1e-9

    # remaining kernels: pointwise, pooling, sampling, normalization
    for _ in range(CASES):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        ma = Matrix(r, c, [rng.uniform(-2, 2) for _ in range(r * c)])
        mb = Matrix(r, c, [rng.uniform(-2, 2) for _ in range(r * c)])
        for op, f in (("add", lambda p, q: p + q), ("subtract", lambda p, q: p - q),
                      ("hadamard", lambda p, q: p * q)):
            got = mat_elementwise(ma, mb, op).data
            assert all(g == f(p, q) for g, p, q in zip(got, ma.data, mb.data))

        batch, feat, outw = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 4)
        x = Tensor((batch, feat), [rng.uniform(-2, 2) for _ in range(batch * feat)])
        w = Matrix(feat, outw, [rng.uniform(-2, 2) for _ in range(feat * outw)])
        bias = Tensor((outw,), [rng.uniform(-1, 1) for _ in range(outw)])
        got_fc = fully_connected(x, w, bias).data
        prod = triple_loop_matmul(batch, feat, x.data, outw, w.data)
        want_fc = [prod[i * outw + o] + bias.data[o] for i in range(batch) for o in range(outw)]
        assert max(abs(p - q) for p, q in zip(got_fc, want_fc)) < 1e-12

        tshape = (rng.randint(2, 5), rng.randint(1, 5))
        tsize = tshape[0] * tshape[1]
        tx = Tensor(tshape, [rng.uniform(-3, 3) for _ in range(tsize)])
        for fn, ref in (("relu", lambda v: v if v > 0 else 0.0), ("tanh", math.tanh),
                        ("sigmoid", lambda v: 1 / (1 + math.exp(-v)))):
            got_a = elementwise_activation(tx, fn).data
            assert max(abs(g - ref(v)) for g, v in zip(got_a, tx.data)) < 1e-12

        bn = batch_norm(tx, axis=0, epsilon=1e-12)
        for j in range(tshape[1]):
            col = [bn.data[i * tshape[1] + j] for i in range(tshape[0])]
            src = [tx.data[i * tshape[1] + j] for i in range(tshape[0])]
            if max(src) > min(src):
                assert abs(math.fsum(col) / len(col)) < 1e-9
        cn = cosine_norm(Tensor(tshape, [v + 4.0 for v in tx.data]), axis=1)
        for i in range(tshape[0]):
            row = cn.data[i * tshape[1]: (i + 1) * tshape[1]]
            assert abs(math.sqrt(math.fsum(v * v for v in row)) - 1.0) < 1e-12

        ph, pw = rng.randint(2, 6), rng.randint(2, 6)
        px = Tensor((1, ph, pw, 1), [rng.uniform(-1, 1) for _ in range(ph * pw)])
        win = rng.randint(1, min(ph, pw))
        stride = rng.randint(1, 2)
        for mode in ("max", "avg"):
            got_p = pool(px, win, stride, mode)
            oh, ow = (ph - win) // stride + 1, (pw - win) // stride + 1
            for i in range(oh):
                for j in range(ow):
                    window = [px.data[(i * stride + u) * pw + (j * stride + v)]
                              for u in range(win) for v in range(win)]
                    want_v = max(window) if mode == "max" else sum(window) / (win * win)
                    assert abs(got_p.data[i * ow + j] - want_v) < 1e-12

        dm = Matrix(ph, pw, [rng.uniform(-1, 1) for _ in range(ph * pw)])
        factor = rng.randint(1, 3)
        ds = downsample(dm, factor)
        for i in range(ds.rows):
            for j in range(ds.cols):
                assert ds.data[i * ds.cols + j] == dm.data[i * factor * dm.cols + j * factor]

        lines = [f"rec{i}" for i in range(rng.randint(1, 40))]
        frac = rng.random()
        kept = random_sample(TextCorpus(lines), frac, seed=rng.randrange(1 << 20)).documents
        indices = [lines.index(k) for k in kept]
        assert indices == sorted(set(indices))  # an order-preserving subset

        dx = Tensor((16,), [rng.uniform(0.5, 2.0) for _ in range(16)])
        p = rng.choice((0.0, 0.25, 0.5, 1.0))
        dropped = dropout(dx, p, seed=rng.randrange(1 << 20))
        for orig, out_v in zip(dx.data, dropped.data):
            assert out_v == 0.0 or abs(out_v - orig / (1 - p)) < 1e-12

        pt = table_of_rows([("id", "integer"), ("v", "integer")],
                           [(i, rng.randint(0, 9)) for i in range(rng.randint(1, 20))])
        assert project(pt, ["v"]).rows == tuple((row[1],) for row in pt.rows)
        assert table_union(pt, pt).rows == pt.rows + pt.rows
        assert count_records(pt).entries == {"count": str(len(pt.rows))}

        gr, gc = 1 << rng.randint(1, 3), 1 << rng.randint(1, 3)
        grid = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(gc)]
                for _ in range(gr)]
        got_g = _fft2d_rows([z for row in grid for z in row], gr, gc, False)
        want_g = naive_dft2d(grid)
        assert max(abs(got_g[i * gc + j] - want_g[i][j])
                   for i in range(gr) for j in range(gc)) < 1e-9

    # one large instance per numeric kernel at the stated scale
    big_rng = random.Random(7)
    n = 256
    seq = [complex(big_rng.uniform(-1, 1), big_rng.uniform(-1, 1)) for _ in range(n)]
    assert max(abs(x - y) for x, y in zip(_fft_rows(seq, n, False), naive_dft(seq))) < 1e-9

    grid = [[complex(big_rng.uniform(-1, 1)) for _ in range(16)] for _ in range(16)]
    got2 = _fft2d_rows([z for row in grid for z in row], 16, 16, False)
    want2 = naive_dft2d(grid)
    assert max(abs(got2[i * 16 + j] - want2[i][j]) for i in range(16) for j in range(16)) < 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"kernel oracle suite took {elapsed:.1f}s"
    _done(1, f"kernel oracle suite, {CASES} randomized instances per kernel in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. MD5 reference oracle


def test_criterion_2_md5_reference():
    vectors = {
        b"": "d41d8cd98f00b204e9800998ecf8427e",
        b"a": "0cc175b9c0f1b6a831c399e269772661",
        b"abc": "900150983cd24fb0d6963f7d28e17f72",
        b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
        b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789":
            "d174ab98d277d9f5a5611c2c9f419d9f",
        b"1234567890" * 8: "57edf4a22be3c955ac49da2e2107b67a",
    }
    assert [d.hex() for d in md5_digests(vectors)] == list(vectors.values())

    rng = random.Random(1321)
    for _ in range(1000):
        data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 260)))
        assert md5_digests([data]) == [hashlib.md5(data).digest()]
    _done(2, "MD5 matches the reference oracle on standard vectors + 1000 random inputs")


# ---------------------------------------------------------------------------
# 3. topdown closure and golden fractions


def test_criterion_3_topdown_closure_and_goldens():
    tree = builtin_tree()
    rng = random.Random(5_2)

    def check_children(node):
        if node.children:
            child_sum = sum(c.fraction for c in node.children)
            assert child_sum <= node.fraction + 0.02 + 1e-12
            for child in node.children:
                check_children(child)

    for _ in range(1000):
        sample = random_valid_sample(rng)
        root = evaluate_tree(sample, tree)
        assert abs(sum(n.fraction for n in root.children) - 1.0) < 1e-9
        for top in root.children:
            check_children(top)

    assert find_node(evaluate_tree(golden_sample(0.229), tree), "Retiring").fraction == 0.229
    assert find_node(evaluate_tree(golden_sample(0.398), tree), "Retiring").fraction == 0.398
    _done(3, "level-1 closure + child sums on 1000 random samples; goldens 0.229/0.398 exact")


# ---------------------------------------------------------------------------
# 4. builtin tree shape


def test_criterion_4_builtin_tree_shape():
    tree = builtin_tree()
    nodes = {}

    def walk(node):
        nodes[node.name] = node
        for child in node.children:
            walk(child)

    for root in tree.roots:
        walk(root)

    assert [r.name for r in tree.roots] == [
        "Retiring", "Bad_Speculation", "Frontend_Bound", "Backend_Bound",
    ]
    assert len(nodes["Frontend_Latency"].children) == 6
    assert {c.name for c in nodes["Frontend_Latency"].children} == {
        "ICache_Misses", "ITLB_Misses", "Branch_Resteers", "DSB_Switches", "LCP", "MS_Switches",
    }
    assert len(nodes["Frontend_Bandwidth"].children) == 3
    assert {c.name for c in nodes["Frontend_Bandwidth"].children} == {"MITE", "DSB", "LSD"}
    assert len(nodes["Backend_Core"].children) == 2
    assert {c.name for c in nodes["Backend_Core"].children} == {"Divider", "Port_Utilization"}
    assert len(nodes["Backend_Memory"].children) == 5
    assert {c.name for c in nodes["Backend_Memory"].children} == {
        "L1_Bound", "L2_Bound", "L3_Bound", "DRAM_Bound", "Store_Bound",
    }
    assert len(nodes["DRAM_Bound"].children) == 4
    assert {c.name for c in nodes["DRAM_Bound"].children} == {
        "Bandwidth", "Local_DRAM", "Remote_DRAM", "Remote_Cache",
    }
    _done(4, "builtin tree node names and arities match the hierarchy")


# ---------------------------------------------------------------------------
# 5. generator determinism and scale


def _generator_checksums(seed: int) -> dict[str, int]:
    text = gen_text(20_000, rng_seed=seed)
    graph = gen_graph(256, 2048, seed, "rmat", *RMAT_DEFAULT)
    matrix = gen_matrix(40, 30, seed, "gaussian", mu=0, sigma=1)
    order, item = gen_table(50, 200, rng_seed=seed)
    return {
        "text": checksum_payload(text),
        "graph": checksum_payload(graph),
        "matrix": checksum_payload(matrix),
        "order": checksum_payload(order),
        "item": checksum_payload(item),
    }


def test_criterion_5_generator_determinism_and_scale():
    start = time.monotonic()

    in_process = _generator_checksums(41)
    again = _generator_checksums(41)
    assert in_process == again

    # a fresh interpreter stands in for the second platform; the generators
    # use only integer state transitions and binary64 arithmetic, so the
    # stream is platform-independent by construction
    script = (
        "import json\n"
        "from motifbench.dataio import checksum_payload\n"
        "from motifbench.generators import (RMAT_DEFAULT,\n"
        "    gen_graph, gen_matrix, gen_table, gen_text)\n"
        "order, item = gen_table(50, 200, rng_seed=41)\n"
        "print(json.dumps({\n"
        "    'text': checksum_payload(gen_text(20000, rng_seed=41)),\n"
        "    'graph': checksum_payload(gen_graph(256, 2048, 41, 'rmat', *RMAT_DEFAULT)),\n"
        "    'matrix': checksum_payload(gen_matrix(40, 30, 41, 'gaussian', mu=0, sigma=1)),\n"
        "    'order': checksum_payload(order),\n"
        "    'item': checksum_payload(item),\n"
        "}))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == in_process

    for target in (5_000, 100_000):
        corpus = gen_text(target, rng_seed=9)
        size = sum(len(line.encode()) + 1 for line in corpus.documents)
        assert 0.95 * target <= size <= 1.05 * target

    assert len(gen_graph(128, 999, 3, "uniform").edges) == 999
    assert len(gen_matrix(17, 13, 3, "uniform", lo=0, hi=1).data) == 17 * 13

    rng = random.Random(20)
    for _ in range(20):
        seed = rng.randrange(1 << 32)
        order, item = gen_table(30, 120, rng_seed=seed)
        assert len(order.rows) == 30 and len(item.rows) == 120
        order_ids = {r[0] for r in order.rows}
        oid = column_index(item, "order_id")
        assert all(r[oid] in order_ids for r in item.rows)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"generator suite took {elapsed:.1f}s"
    _done(5, f"generator determinism (two processes) and exact scale in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. DAG composer equivalence


def test_criterion_6_dag_composer_equivalence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = parse_spec_file(shipped_spec_path("sift-like"))
    reports = execute(spec, repeat=1)

    img = gen_matrix(64, 64, 11, "uniform", lo=0, hi=255)
    smooth = fft(fft(img, two_d=True, inverse=False), two_d=True, inverse=True)
    residue = mat_elementwise(img, smooth, "subtract")
    octave = downsample(residue, 2)
    ranked = sort_records(octave, key=0)
    feats = count_records(ranked)
    assert reports[0].output_checksums["ranked"] == checksum_payload(ranked)
    assert reports[0].output_checksums["feats"] == checksum_payload(feats)

    for rep in reports:
        assert abs(sum(rep.family_fractions.values()) - 1.0) < 1e-9

    cyc = tmp_path / "cycle.spec"
    cyc.write_text('workload "w"\nnode y = transform.fft(y)\n')
    assert cli_main(["run", "--spec", str(cyc)]) == 3

    arity = tmp_path / "arity.spec"
    arity.write_text(
        'workload "w"\n'
        "input a = generate.matrix(rows=2, cols=2, seed=1)\n"
        "node p = matrix.multiply(a)\n"
    )
    assert cli_main(["run", "--spec", str(arity)]) == 3
    _done(6, "sift-like equals manual composition; fractions close; cycle/arity exit 3")


# ---------------------------------------------------------------------------
# 7. PCA / clustering correctness


def test_criterion_7_pca_cluster_correctness():
    rng = random.Random(77)

    for _ in range(10):
        matrix = [[rng.uniform(-2, 2) for _ in range(8)] for _ in range(10)]
        result = pca(matrix, variance_threshold=1.0)
        comps = result.components
        for i, ci in enumerate(comps):
            for j, cj in enumerate(comps):
                dot = math.fsum(a * b for a, b in zip(ci, cj))
                assert abs(dot - (1.0 if i == j else 0.0)) < 1e-9
        cov = np.cov(np.array(matrix), rowvar=False, ddof=1)
        want = sorted(np.linalg.eigvalsh(cov), reverse=True)
        total = float(np.trace(cov))
        got_eigvals = [r * total for r in result.explained]
        assert max(abs(a - b) for a, b in zip(got_eigvals, want)) < 1e-8
        want_ratios = [max(v, 0.0) / total for v in want]
        assert max(abs(a - b) for a, b in zip(result.explained, want_ratios)) < 1e-8

    from .test_similarity import brute_force_agglomerative

    for _ in range(25):
        points = [[rng.uniform(-3, 3) for _ in range(2)] for _ in range(6)]
        got = hcluster(points, linkage="average")
        want = brute_force_agglomerative(points, "average")
        assert [(s.a, s.b, s.new_id) for s in got.merges] == [
            (a, b, nid) for a, b, _, nid in want
        ]
        for step, (_, _, d, _) in zip(got.merges, want):
            assert step.distance == pytest.approx(d, abs=1e-10)

    # three synthetic metric-vector groups: sigma=0.01 noise, separation 1.0
    names = tuple(f"m{i}" for i in range(6))
    centers = [[0.0] * 6, [1.0] * 6, [2.0] * 6]
    vectors, want_groups = [], []
    for g, center in enumerate(centers):
        for i in range(5):
            values = tuple(c + rng.gauss(0, 0.01) for c in center)
            vectors.append(MetricVector(f"g{g}_{i}", names, values))
            want_groups.append(g)
    labels, matrix = standardize(vectors)
    projected = pca(matrix, variance_threshold=0.9).projected
    dendro = hcluster([list(p) for p in projected], linkage="average")
    got_groups = cut_dendrogram(dendro, 3)
    mapping = {}
    for got, want in zip(got_groups, want_groups):
        mapping.setdefault(got, want)
        assert mapping[got] == want
    assert len(set(got_groups)) == 3
    _done(7, "PCA eigen-oracle + average-linkage oracle + 3-group recovery at cut=3")


# ---------------------------------------------------------------------------
# 8. end-to-end smoke over all shipped specs


def test_criterion_8_end_to_end_smoke(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.monotonic()

    assert cli_main(["generate", "matrix", "--rows", "8", "--cols", "8",
                     "--rng-seed", "1", "-o", "gen/m.matrix"]) == 0
    assert cli_main(["generate", "graph", "--vertices", "64", "--edges", "256",
                     "--model", "rmat:0.57,0.19,0.19,0.05", "--rng-seed", "1",
                     "-o", "gen/g.graph"]) == 0
    assert cli_main(["generate", "text", "--bytes", "4096", "--rng-seed", "1",
                     "-o", "gen/t.text"]) == 0
    assert cli_main(["generate", "table", "--orders", "20", "--items", "60",
                     "--rng-seed", "1", "-o", "gen/tables"]) == 0
    for rel in ("gen/m.matrix", "gen/g.graph", "gen/t.text",
                "gen/tables/order.table", "gen/tables/item.table"):
        load_dataset(rel)  # parses and validates

    retiring_by_spec = {"sift-like": 0.2, "pagerank": 0.3, "index": 0.4, "cnn-forward": 0.5}
    metrics_csv = tmp_path / "metrics.csv"
    for name in SHIPPED_SPECS:
        report = tmp_path / f"report-{name}.json"
        assert cli_main(["run", "--spec", shipped_spec_path(name),
                         "--repeat", "3", "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["workload"] == name
        assert len(doc["repeats"]) == 3
        for rep in doc["repeats"]:
            for inv in rep["invocations"]:
                assert set(inv) == {"id", "motif", "wall_ns", "in_bytes", "out_bytes"}
        assert abs(sum(doc["family_fractions"].values()) - 1.0) < 1e-9

        dumps = []
        for i in range(3):
            sample = golden_sample(retiring_by_spec[name] + 0.001 * i, label=name)
            path = tmp_path / f"{name}-run{i}.csv"
            write_sample(sample, str(path))
            dumps.append(str(path))
        breakdown = tmp_path / f"breakdown-{name}.json"
        assert cli_main(["analyze", "--events", *dumps, "--label", name,
                         "-o", str(breakdown), "--vector-out", str(metrics_csv)]) == 0
        bdoc = json.loads(breakdown.read_text())
        assert {"label", "width", "cycles", "breakdown", "ipc", "mlp"} <= set(bdoc)
        level1 = [c["name"] for c in bdoc["breakdown"]["children"]]
        assert level1 == ["Retiring", "Bad_Speculation", "Frontend_Bound", "Backend_Bound"]

    dendro = tmp_path / "dendro.json"
    assert cli_main(["cluster", "--metrics", str(metrics_csv), "--cut", "2",
                     "-o", str(dendro)]) == 0
    ddoc = json.loads(dendro.read_text())
    assert len(ddoc["labels"]) == 4
    assert len(ddoc["dendrogram"]["merges"]) == 3

    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"end-to-end smoke took {elapsed:.1f}s"
    _done(8, f"generate -> run x3 -> analyze -> cluster over all shipped specs in {elapsed:.1f}s")
