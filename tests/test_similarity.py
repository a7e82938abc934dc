import itertools
import math
import random

import numpy as np
import pytest

from motifbench.errors import InvariantError
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


def test_read_vectors_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,m0\nw1,notanumber\n")
    with pytest.raises(InvariantError):
        read_vectors_csv(str(path))
    path.write_text("wrong,m0\n")
    with pytest.raises(InvariantError):
        read_vectors_csv(str(path))
