import itertools
import math
import random

import numpy as np
import pytest

from motifbench import similarity
from motifbench.errors import EventError, FormatError, InvariantError
from motifbench.similarity import (
    Dendrogram,
    append_vector_csv,
    cut_dendrogram,
    dendrogram_to_json,
    euclidean,
    hcluster,
    pca,
    read_vectors_csv,
    render_dendrogram,
    standardize,
    write_vectors_csv,
)
from motifbench.topdown import MetricVector

from .oracles import (
    cyclic_jacobi_eigh,
    row_covariance,
    set_scan_hcluster,
    textbook_jacobi_eigh,
)


def vec(label, values, names=None):
    names = names or tuple(f"m{i}" for i in range(len(values)))
    return MetricVector(label, tuple(names), tuple(float(v) for v in values))


def brute_force_agglomerative(points, linkage="average"):
    """Recompute every inter-cluster distance from raw points each step."""
    clusters: dict[int, frozenset] = {i: frozenset([i]) for i in range(len(points))}
    merges = []
    next_id = len(points)
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(sorted(clusters), 2):
            pair_d = [
                euclidean(points[i], points[j]) for i in clusters[a] for j in clusters[b]
            ]
            if linkage == "average":
                d = sum(pair_d) / len(pair_d)
            elif linkage == "single":
                d = min(pair_d)
            else:
                d = max(pair_d)
            if best is None or d < best[0]:
                best = (d, a, b)
        d, a, b = best
        clusters[next_id] = clusters.pop(a) | clusters.pop(b)
        merges.append((a, b, d, next_id))
        next_id += 1
    return merges


# ---------------------------------------------------------------------------
# standardize


def test_standardize_identical_vectors_all_zero():
    vectors = [vec("a", [1, 2, 3]), vec("b", [1, 2, 3])]
    labels, matrix = standardize(vectors)
    assert labels == ["a", "b"]
    assert all(v == 0.0 for row in matrix for v in row)


def test_standardize_two_point_column():
    vectors = [vec("a", [0.0]), vec("b", [2.0])]
    _, matrix = standardize(vectors)
    assert matrix[0][0] == pytest.approx(-1 / math.sqrt(2))
    assert matrix[1][0] == pytest.approx(+1 / math.sqrt(2))


def test_standardize_column_moments():
    rng = random.Random(10)
    vectors = [vec(f"v{i}", [rng.uniform(-5, 5) for _ in range(5)]) for i in range(10)]
    _, matrix = standardize(vectors)
    for j in range(5):
        col = [matrix[i][j] for i in range(10)]
        assert abs(math.fsum(col) / 10) < 1e-12
        var = math.fsum(v * v for v in col) / 9
        assert abs(var - 1.0) < 1e-9


def test_standardize_rejects_mismatched_orderings():
    a = MetricVector("a", ("x", "y"), (1.0, 2.0))
    b = MetricVector("b", ("y", "x"), (1.0, 2.0))
    with pytest.raises(InvariantError):
        standardize([a, b])


# ---------------------------------------------------------------------------
# pca


def test_pca_collinear_data_one_component():
    rng = random.Random(21)
    matrix = [[x, 2 * x] for x in (rng.uniform(-3, 3) for _ in range(30))]
    result = pca(matrix, variance_threshold=0.999)
    assert result.retained == 1
    assert result.explained[0] >= 0.999


def test_pca_isotropic_cloud_needs_both():
    rng = random.Random(22)
    matrix = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(400)]
    result = pca(matrix, variance_threshold=0.9)
    assert result.retained == 2


def test_pca_components_orthonormal():
    rng = random.Random(23)
    matrix = [[rng.uniform(-1, 1) for _ in range(8)] for _ in range(10)]
    result = pca(matrix, variance_threshold=1.0)
    comps = result.components
    for i, ci in enumerate(comps):
        for j, cj in enumerate(comps):
            dot = math.fsum(a * b for a, b in zip(ci, cj))
            assert abs(dot - (1.0 if i == j else 0.0)) < 1e-9


def test_pca_eigenvalues_match_numpy_oracle():
    rng = random.Random(24)
    matrix = [[rng.uniform(-2, 2) for _ in range(8)] for _ in range(10)]
    result = pca(matrix, variance_threshold=1.0)
    cov = np.cov(np.array(matrix), rowvar=False, ddof=1)
    want = sorted(np.linalg.eigvalsh(cov), reverse=True)
    total = sum(max(v, 0.0) for v in want)
    want_ratios = [max(v, 0.0) / total for v in want]
    assert max(abs(a - b) for a, b in zip(result.explained, want_ratios)) < 1e-8


def test_pca_projection_reconstructs_centered_data():
    rng = random.Random(25)
    matrix = [[rng.uniform(-1, 1) for _ in range(5)] for _ in range(12)]
    result = pca(matrix, variance_threshold=1.0)
    means = [sum(row[j] for row in matrix) / 12 for j in range(5)]
    for i, row in enumerate(matrix):
        rebuilt = [0.0] * 5
        for k, comp in enumerate(result.components):
            for j in range(5):
                rebuilt[j] += result.projected[i][k] * comp[j]
        for j in range(5):
            assert abs(rebuilt[j] - (row[j] - means[j])) < 1e-9


def test_pca_explained_sorted_and_bounded():
    rng = random.Random(26)
    matrix = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(9)]
    result = pca(matrix, variance_threshold=0.5)
    assert all(a >= b for a, b in zip(result.explained, result.explained[1:]))
    assert all(r >= 0 for r in result.explained)
    assert sum(result.explained) <= 1 + 1e-9


def characterize_like(seed):
    """64 profiles x 35 metrics in 4 archetypes, as characterize's cluster
    input: 20 leaf metrics, and 15 parents that each sum two or three of them,
    so the covariance is rank-deficient with many eigenvalues near zero."""
    rng = random.Random(seed)
    centers = [[rng.uniform(0.0, 1.0) for _ in range(20)] for _ in range(4)]
    parents = [rng.sample(range(20), rng.choice((2, 3))) for _ in range(15)]
    rows = []
    for i in range(64):
        leaves = [x * (1.0 + rng.uniform(-0.03, 0.03)) for x in centers[i % 4]]
        rows.append(leaves + [math.fsum(leaves[j] for j in group) for group in parents])
    return [vec(f"w{i}", row) for i, row in enumerate(rows)]


@pytest.mark.parametrize("big", [1e200, 1.7e308])
def test_overflow_is_an_invariant_error(big):
    """Finite values whose variance, covariance or distance overflows a float
    raise InvariantError, never OverflowError or ValueError."""
    vectors = [vec("a", [0.5, big]), vec("b", [0.25, -big]), vec("c", [1.0, 0.0])]
    with pytest.raises(InvariantError, match="variance of metric"):
        standardize(vectors)
    with pytest.raises(InvariantError, match="covariance is not finite"):
        pca([list(v.values) for v in vectors])
    # opposite infinite products in one covariance entry (fsum's inf + -inf)
    with pytest.raises(InvariantError, match="covariance is not finite"):
        pca([[big, -big], [-big, big], [0.0, 0.0]])
    with pytest.raises(InvariantError, match="distance is not finite"):
        euclidean([big, 0.0], [-big, 0.0])
    with pytest.raises(InvariantError, match="distance is not finite"):
        hcluster([[big], [-big], [0.0]])


def test_large_values_below_overflow_keep_their_bits():
    a, b = [3e153, 0.0], [-3e153, 4e153]
    assert euclidean(a, b) == math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))
    _, z = standardize([vec("a", [1e150]), vec("b", [-1e150]), vec("c", [0.0])])
    assert [row[0] for row in z] == [1.0, -1.0, 0.0]


def test_pca_covariance_equals_row_form_oracle(monkeypatch):
    """pca diagonalizes exactly the covariance of row_covariance, bit for
    bit, on characterize-like metrics and on random matrices of many scales."""
    seen = []

    def capture(cov):
        seen.append(cov)
        return eigh(cov)

    eigh = similarity._tridiagonal_eigh
    monkeypatch.setattr(similarity, "_tridiagonal_eigh", capture)
    rng = random.Random(27)
    matrices = [standardize(characterize_like(seed))[1] for seed in (1, 2, 3)]
    matrices.append([list(v.values) for v in characterize_like(1)])
    for _ in range(40):
        n, d, scale = rng.randint(2, 20), rng.randint(1, 12), 10.0 ** rng.randint(-150, 150)
        matrices.append([[rng.gauss(0.0, scale) for _ in range(d)] for _ in range(n)])
    for matrix in matrices:
        pca(matrix, variance_threshold=1.0)
        assert seen.pop() == row_covariance(matrix)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tridiagonal_eigh_matches_cyclic_oracle_on_rank_deficient_covariance(seed, monkeypatch):
    _, matrix = standardize(characterize_like(seed))
    cov = row_covariance(matrix)
    d = len(cov)
    tol = 1e-12 * math.sqrt(math.fsum(x * x for row in cov for x in row))
    vals, vecs = similarity._tridiagonal_eigh(cov)
    want_vals, want_vecs = cyclic_jacobi_eigh(cov)
    order = sorted(range(d), key=vals.__getitem__, reverse=True)
    want_order = sorted(range(d), key=want_vals.__getitem__, reverse=True)
    got = [vals[i] for i in order]
    assert max(abs(a - b) for a, b in zip(got, (want_vals[i] for i in want_order))) <= tol
    numpy_vals = sorted(np.linalg.eigvalsh(np.array(cov)), reverse=True)
    assert max(abs(a - b) for a, b in zip(got, numpy_vals)) <= tol
    for i, j in zip(order[:3], want_order[:3]):
        cos = math.fsum(vecs[r][i] * want_vecs[r][j] for r in range(d))
        assert 1.0 - abs(cos) <= 1e-12
    for i in range(d):
        for j in range(d):
            dot = math.fsum(vecs[r][i] * vecs[r][j] for r in range(d))
            assert abs(dot - (1.0 if i == j else 0.0)) <= 1e-13

    def clusters():
        tree = hcluster([list(p) for p in pca(matrix).projected])
        return [(m.a, m.b, m.new_id) for m in tree.merges], cut_dendrogram(tree, 4)

    got_tree = clusters()
    monkeypatch.setattr(similarity, "_tridiagonal_eigh", cyclic_jacobi_eigh)
    assert got_tree == clusters()
    assert got_tree[1] == [0, 1, 2, 3] * 16


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cluster_result_matches_textbook_jacobi_oracle(seed, monkeypatch):
    """The parts of the cluster output that decide the result (cut, merge
    order, retained components) are those the textbook Jacobi solver gives;
    explained ratios and merge distances agree to 1e-13."""
    _, matrix = standardize(characterize_like(seed))

    def run():
        result = pca(matrix)
        tree = hcluster([list(p) for p in result.projected])
        return result, tree

    got, got_tree = run()
    monkeypatch.setattr(similarity, "_tridiagonal_eigh", textbook_jacobi_eigh)
    want, want_tree = run()
    assert cut_dendrogram(got_tree, 4) == cut_dendrogram(want_tree, 4) == [0, 1, 2, 3] * 16
    assert [(m.a, m.b, m.new_id) for m in got_tree.merges] == [
        (m.a, m.b, m.new_id) for m in want_tree.merges
    ]
    assert got.retained == want.retained
    assert max(abs(a - b) for a, b in zip(got.explained, want.explained)) <= 1e-13
    assert max(
        abs(a.distance - b.distance) for a, b in zip(got_tree.merges, want_tree.merges)
    ) <= 1e-13


def test_tridiagonal_eigh_raises_when_the_iteration_cap_is_reached(monkeypatch):
    """This 3 x 3 matrix needs three QL steps for its first eigenvalue: a cap
    of 1 or 2 raises, naming the cap, and a cap of 3 is enough."""
    a = [[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 4.0]]
    for cap in (1, 2):
        monkeypatch.setattr(similarity, "QL_MAX_ITERATIONS", cap)
        with pytest.raises(InvariantError, match=f"did not converge in {cap} iterations"):
            similarity._tridiagonal_eigh(a)
    monkeypatch.setattr(similarity, "QL_MAX_ITERATIONS", 3)
    similarity._tridiagonal_eigh(a)
    monkeypatch.setattr(similarity, "QL_MAX_ITERATIONS", 1)
    assert similarity._tridiagonal_eigh([[2.0, 0.0], [0.0, 3.0]]) == (
        [2.0, 3.0], [[1.0, 0.0], [0.0, 1.0]]
    )


def _characterize_covariance(scale):
    _, matrix = standardize(characterize_like(1))
    return [[x * scale for x in row] for row in row_covariance(matrix)]


@pytest.mark.parametrize("scale", [1e8, 1e-8])
def test_tridiagonal_eigh_stop_is_relative_to_the_matrix_norm(scale, monkeypatch):
    """The split test scales with the matrix: an absolute one would never
    split a covariance of norm 2e9, and would split one of norm 2e-7 at once.
    Scaled, the covariance converges inside the cap the unscaled one needs."""
    cov, scaled = _characterize_covariance(1.0), _characterize_covariance(scale)
    monkeypatch.setattr(similarity, "QL_MAX_ITERATIONS", 4)
    vals = sorted(similarity._tridiagonal_eigh(scaled)[0])
    want = sorted(similarity._tridiagonal_eigh(cov)[0])
    norm = math.sqrt(math.fsum(x * x for row in scaled for x in row))
    assert max(abs(a - scale * b) for a, b in zip(vals, want)) <= 1e-12 * norm


EDGE_MATRICES = {
    "1x1": lambda: [[-2.5]],
    "2x2": lambda: [[2.0, -1.5], [-1.5, 0.5]],
    "diagonal": lambda: [[x if i == j else 0.0 for j in range(5)]
                         for i, x in enumerate((3.0, -1.0, 0.5, 7.0, 0.0))],
    "zero": lambda: [[0.0] * 4 for _ in range(4)],
    "identity": lambda: [[1.0 if i == j else 0.0 for j in range(6)] for i in range(6)],
    "block-diagonal": lambda: [
        [2.0, 1.0, 0.0, 0.0, 0.0],
        [1.0, 2.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 3.0, 1.0, 0.5],
        [0.0, 0.0, 1.0, 5.0, 0.25],
        [0.0, 0.0, 0.5, 0.25, 4.0],
    ],
    "characterize-1e8": lambda: _characterize_covariance(1e8),
}


@pytest.mark.parametrize("name", EDGE_MATRICES)
def test_tridiagonal_eigh_edge_cases_match_numpy(name):
    a = EDGE_MATRICES[name]()
    d = len(a)
    vals, vecs = similarity._tridiagonal_eigh(a)
    norm = math.sqrt(math.fsum(x * x for row in a for x in row))
    want = np.linalg.eigvalsh(np.array(a))
    assert max(abs(x - y) for x, y in zip(sorted(vals), want)) <= 1e-12 * norm
    v = np.array(vecs)
    assert np.max(np.abs(v.T @ v - np.eye(d))) <= 1e-13
    assert np.max(np.abs(np.array(a) @ v - v * np.array(vals))) <= 1e-12 * norm
    if name == "2x2":
        (p, b), (_, r) = a
        half, rad = (p + r) / 2.0, math.hypot((p - r) / 2.0, b)
        assert sorted(vals) == pytest.approx([half - rad, half + rad], rel=1e-15)


def test_pca_component_sign_is_deterministic(monkeypatch):
    """Each component's largest-magnitude entry is positive, so negating the
    solver's eigenvectors changes no bit of the result, and the textbook
    Jacobi oracle gives the same components."""
    _, matrix = standardize(characterize_like(1))
    got = pca(matrix)
    assert all(max(comp, key=abs) > 0.0 for comp in got.components)
    solve = similarity._tridiagonal_eigh

    def negated(a):
        vals, vecs = solve(a)
        return vals, [[-x for x in row] for row in vecs]

    monkeypatch.setattr(similarity, "_tridiagonal_eigh", negated)
    assert pca(matrix) == got
    monkeypatch.setattr(similarity, "_tridiagonal_eigh", textbook_jacobi_eigh)
    want = pca(matrix)
    for comp, want_comp in zip(got.components, want.components):
        assert max(abs(x - y) for x, y in zip(comp, want_comp)) <= 1e-10
    # On a tie in magnitude the first entry decides.
    s = math.sqrt(0.5)
    monkeypatch.setattr(similarity, "_tridiagonal_eigh", lambda a: ([1.0, 2.0], [[-s, s], [s, s]]))
    assert pca([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], 1.0).components == ((s, s), (s, -s))


def test_pca_rejects_a_matrix_without_columns():
    with pytest.raises(InvariantError, match="at least one metric column"):
        pca([[], []])


def test_pca_threshold_validation():
    with pytest.raises(InvariantError):
        pca([[1.0], [2.0]], variance_threshold=0.0)
    with pytest.raises(InvariantError):
        pca([[1.0]], variance_threshold=0.9)


# ---------------------------------------------------------------------------
# clustering


def test_two_points_single_merge():
    d = hcluster([[0.0], [3.0]])
    assert len(d.merges) == 1
    step = d.merges[0]
    assert (step.a, step.b, step.new_id) == (0, 1, 2)
    assert step.distance == 3.0


def test_well_separated_blobs_merge_last():
    rng = random.Random(31)
    blob_a = [[rng.gauss(0, 0.05), rng.gauss(0, 0.05)] for _ in range(3)]
    blob_b = [[rng.gauss(10, 0.05), rng.gauss(10, 0.05)] for _ in range(3)]
    d = hcluster(blob_a + blob_b, linkage="average")
    final = d.merges[-1].distance
    assert all(final > step.distance for step in d.merges[:-1])


def test_merge_distances_non_decreasing_all_linkages():
    rng = random.Random(32)
    points = [[rng.uniform(-5, 5) for _ in range(3)] for _ in range(12)]
    for linkage in ("average", "single", "complete"):
        d = hcluster(points, linkage=linkage)
        dists = [s.distance for s in d.merges]
        assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))


def test_hcluster_matches_brute_force_oracle():
    rng = random.Random(33)
    for linkage in ("average", "single", "complete"):
        for _ in range(20):
            points = [[rng.uniform(-4, 4) for _ in range(2)] for _ in range(6)]
            got = hcluster(points, linkage=linkage)
            want = brute_force_agglomerative(points, linkage)
            assert len(got.merges) == len(want)
            for step, (a, b, dist, new_id) in zip(got.merges, want):
                assert (step.a, step.b, step.new_id) == (a, b, new_id)
                assert step.distance == pytest.approx(dist, abs=1e-10)


@pytest.mark.parametrize("linkage", ["average", "single", "complete"])
def test_hcluster_equals_set_scan_oracle(linkage):
    """Whole Dendrograms compared, float distances included. Points on a
    small integer grid repeat distances, so most merges are ties."""
    rng = random.Random(35)
    for trial in range(46):
        n = rng.randint(2, 24) if trial < 40 else rng.randint(60, 100)
        if trial % 2:
            points = [[float(rng.randint(0, 3)) for _ in range(2)] for _ in range(n)]
        else:
            points = [[rng.uniform(-4, 4) for _ in range(3)] for _ in range(n)]
        assert hcluster(points, linkage=linkage) == set_scan_hcluster(points, linkage)


def test_cut_recovers_constructed_groups():
    rng = random.Random(34)
    centers = [[0.0] * 4, [10.0] * 4, [-10.0, 10.0, -10.0, 10.0]]
    points, want = [], []
    for g, center in enumerate(centers):
        for _ in range(4):
            points.append([c + rng.gauss(0, 0.01) for c in center])
            want.append(g)
    d = hcluster(points, linkage="average")
    got = cut_dendrogram(d, 3)
    mapping = {}
    for g, w in zip(got, want):
        mapping.setdefault(g, w)
        assert mapping[g] == w
    assert len(set(got)) == 3


def test_cut_bounds():
    d = hcluster([[0.0], [1.0], [5.0]])
    assert cut_dendrogram(d, 1) == [0, 0, 0]
    assert cut_dendrogram(d, 3) == [0, 1, 2]
    with pytest.raises(InvariantError):
        cut_dendrogram(d, 4)


def test_dendrogram_requires_n_minus_one_merges():
    with pytest.raises(InvariantError):
        Dendrogram(3, ())


def test_render_and_json(tmp_path):
    points = [[0.0], [1.0], [10.0]]
    d = hcluster(points)
    doc = dendrogram_to_json(d, ["x", "y", "z"])
    assert len(doc["merges"]) == 2
    text = render_dendrogram(d, ["x", "y", "z"])
    assert "x" in text and "d=" in text


# ---------------------------------------------------------------------------
# vector CSV


def test_vectors_csv_roundtrip(tmp_path):
    path = str(tmp_path / "m.csv")
    vectors = [vec("w1", [0.1, 0.2]), vec("w2", [0.3, 0.4])]
    write_vectors_csv(path, vectors)
    assert read_vectors_csv(path) == vectors


def test_append_vector_csv(tmp_path):
    path = str(tmp_path / "m.csv")
    append_vector_csv(path, vec("w1", [1, 2]))
    append_vector_csv(path, vec("w2", [3, 4]))
    got = read_vectors_csv(path)
    assert [v.label for v in got] == ["w1", "w2"]
    with pytest.raises(InvariantError):
        append_vector_csv(path, MetricVector("w3", ("other",), (1.0,)))


def test_append_vector_csv_checks_header_of_header_only_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("label,a,b\n")
    with pytest.raises(InvariantError, match="does not match existing header"):
        append_vector_csv(str(path), MetricVector("w1", ("c",), (1.0,)))
    assert path.read_text() == "label,a,b\n"
    append_vector_csv(str(path), MetricVector("w1", ("a", "b"), (1.0, 2.0)))
    assert [v.values for v in read_vectors_csv(str(path))] == [(1.0, 2.0)]


def test_vectors_csv_quotes_every_field_of_a_record_holding_a_cr(tmp_path):
    # A bare CR in an unquoted field would read back as a line break.
    path = str(tmp_path / "m.csv")
    first = MetricVector("a\rb", ("m", "ipc"), (0.5, 1.25))
    second = MetricVector("c", ("m", "ipc"), (0.25, 2.0))
    append_vector_csv(path, first)
    append_vector_csv(path, second)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == 'label,m,ipc\n"a\rb","0.5","1.25"\nc,0.25,2.0\n'
    assert read_vectors_csv(path) == [first, second]
    crossed = [MetricVector(v.label, ("Front\rend", "ipc"), v.values) for v in (second, first)]
    write_vectors_csv(path, crossed)
    assert read_vectors_csv(path) == crossed


@pytest.mark.parametrize("existing", ["label,a,b", "label,a,b\nw0,1.0,2.0"],
                         ids=["header-only", "last-row"])
def test_append_vector_csv_after_a_last_line_without_newline(tmp_path, existing):
    path = tmp_path / "m.csv"
    path.write_text(existing)
    append_vector_csv(str(path), MetricVector("w1", ("a", "b"), (3.0, 4.0)))
    assert path.read_text() == existing + "\nw1,3.0,4.0\n"
    assert read_vectors_csv(str(path))[-1] == MetricVector("w1", ("a", "b"), (3.0, 4.0))


def test_append_vector_csv_reads_only_the_header(tmp_path, monkeypatch):
    """64 appends of characterize-sized rows decode the header once per
    append after the first, and never read the whole file."""
    path = tmp_path / "m.csv"
    decoded, decode = [], similarity._decode

    def counting_decode(blob, *args):
        decoded.append(len(blob))
        return decode(blob, *args)

    monkeypatch.setattr(similarity, "_decode", counting_decode)
    monkeypatch.setattr(similarity, "read_input", None)  # any whole-file read fails
    for i in range(64):
        append_vector_csv(str(path), vec(f"w{i}", [i / 7 + j for j in range(35)]))
    blob = path.read_bytes()
    assert blob.count(b"\n") == 65
    assert decoded == [blob.index(b"\n") + 1] * 63


@pytest.mark.parametrize("existing", ["\n", "\r\n", "\n\n"], ids=["lf", "crlf", "two-lf"])
def test_append_vector_csv_on_a_file_of_line_terminators_writes_the_header(tmp_path, existing):
    path = tmp_path / "m.csv"
    path.write_bytes(existing.encode())
    append_vector_csv(str(path), MetricVector("w1", ("a", "b"), (1.0, 2.0)))
    assert path.read_text() == "label,a,b\nw1,1.0,2.0\n"


@pytest.mark.parametrize("existing", ["\nlabel,a,b\n", "\n\nlabel,a,b\nw0,1.0,2.0\n"],
                         ids=["blank-then-header", "blanks-then-rows"])
def test_append_vector_csv_refuses_a_blank_first_record_before_others(tmp_path, existing):
    path = tmp_path / "m.csv"
    path.write_text(existing)
    with pytest.raises(InvariantError, match="does not match existing header"):
        append_vector_csv(str(path), MetricVector("w1", ("a", "b"), (1.0, 2.0)))
    assert path.read_text() == existing


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_vectors_csv_names_the_line_of_a_non_finite_value(tmp_path, value):
    path = tmp_path / "m.csv"
    path.write_text(f"label,a\nw1,1.0\n\nw2,{value}\n")
    with pytest.raises(EventError) as err:
        read_vectors_csv(str(path))
    assert str(err.value) == f"{path}:4: metric 'a' has non-finite value {float(value)!r}"


def test_append_vector_csv_decodes_and_parses_only_the_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"label,a\nw\xff,1\n")  # bad bytes after the header are not read
    append_vector_csv(str(path), vec("w2", [2], names=("a",)))
    assert path.read_bytes() == b"label,a\nw\xff,1\nw2,2.0\n"
    path.write_bytes(b'label,"a\nb"\nw1,1.0\n')  # a header record over two lines
    append_vector_csv(str(path), vec("w2", [2], names=("a\nb",)))
    assert [v.label for v in read_vectors_csv(str(path))] == ["w1", "w2"]
    path.write_bytes(b"label,a\xff\nw1,1.0\n")
    with pytest.raises(FormatError, match=":1: not valid UTF-8"):
        append_vector_csv(str(path), vec("w2", [2], names=("a",)))
    path.write_bytes(b"label," + b"a" * 200_000 + b"\n")  # beyond the csv field limit
    with pytest.raises(FormatError, match=":1: bad CSV record"):
        append_vector_csv(str(path), vec("w2", [2], names=("a",)))


def test_read_vectors_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,m0\nw1,notanumber\n")
    with pytest.raises(InvariantError):
        read_vectors_csv(str(path))
    path.write_text("wrong,m0\n")
    with pytest.raises(InvariantError):
        read_vectors_csv(str(path))
    path.write_text("label,m0\n" + "w" * 200_000 + ",1\n")  # beyond the csv field limit
    with pytest.raises(FormatError, match=":2: bad CSV record"):
        read_vectors_csv(str(path))
    path.write_text('label,m0\n"two\nlines",1\nw2,notanumber\n')  # a label over lines 2-3
    with pytest.raises(InvariantError, match=":4: non-numeric"):
        read_vectors_csv(str(path))


def _append_w1(path):
    append_vector_csv(path, vec("w1", [1, 2], names=("a", "b")))


# The whole text of each content error of a metrics CSV, after the file's
# path: the error type, the line it names and the message. Blank lines count
# toward the line numbers.
METRICS_ERRORS = {
    "empty-file": (read_vectors_csv, "", InvariantError, ": empty metrics file"),
    "first-column-not-label": (
        read_vectors_csv, "name,a\nw1,1.0\n", InvariantError, ": first column must be 'label'"),
    "field-count": (
        read_vectors_csv, "label,a\nw1,1.0\n\nw2,1.0,2.0\n", InvariantError,
        ":4: row has 3 fields, header has 2"),
    "non-numeric-value": (
        read_vectors_csv, "label,a\n\nw1,x\n", InvariantError, ":3: non-numeric metric value"),
    "non-finite-value": (
        read_vectors_csv, "label,a\nw1,nan\n", EventError,
        ":2: metric 'a' has non-finite value nan"),
    "header-mismatch-on-append": (
        _append_w1, "label,a,c\nw0,1.0,2.0\n", InvariantError,
        ": metric ordering does not match existing header"),
}


@pytest.mark.parametrize("call, content, error, where_and_message", METRICS_ERRORS.values(),
                         ids=METRICS_ERRORS.keys())
def test_metrics_error_text_is_pinned(tmp_path, call, content, error, where_and_message):
    path = tmp_path / "m.csv"
    path.write_text(content)
    with pytest.raises(error) as err:
        call(str(path))
    assert type(err.value) is error and str(err.value) == f"{path}{where_and_message}"
