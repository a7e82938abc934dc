"""Workload similarity: standardization, PCA, and agglomerative clustering.

The pipeline used by the cluster command: z-score the metric columns, project
onto the principal components that explain the requested variance share, then
merge clusters bottom-up under Euclidean distance. A short linkage distance
between two workloads means their metric profiles are close; the Dendrogram
merge list records every join and its distance.

The covariance eigendecomposition is cyclic Jacobi: each sweep rotates away
every off-diagonal entry (p, q) in turn, row by row, and sweeps repeat until
the off-diagonal Frobenius norm drops below 1e-12. Rotations keep the
component matrix orthonormal by construction.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import combinations

from .dataio import csv_records, open_output, read_input
from .errors import InvariantError
from .topdown import MetricVector

JACOBI_EPS = 1e-12
JACOBI_MAX_SWEEPS = 100

LINKAGES = ("average", "single", "complete")


# ---------------------------------------------------------------------------
# standardization


def standardize(vectors: list[MetricVector]) -> tuple[list[str], list[list[float]]]:
    """Per-metric z-scores (sample standard deviation); zero-variance metrics
    map to all-zero columns. All vectors must share one metric ordering."""
    if len(vectors) < 2:
        raise InvariantError(f"standardize needs >= 2 vectors, got {len(vectors)}")
    names = vectors[0].names
    for v in vectors[1:]:
        if v.names != names:
            raise InvariantError(
                f"metric orderings differ: {v.label!r} does not match {vectors[0].label!r}"
            )
    n = len(vectors)
    d = len(names)
    cols = list(zip(*(v.values for v in vectors)))
    out = [[0.0] * d for _ in range(n)]
    for j in range(d):
        col = cols[j]
        mean = math.fsum(col) / n
        var = math.fsum((x - mean) ** 2 for x in col) / (n - 1)
        if var > 0.0:
            std = math.sqrt(var)
            for i in range(n):
                out[i][j] = (col[i] - mean) / std
    return [v.label for v in vectors], out


# ---------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaResult:
    components: tuple[tuple[float, ...], ...]  # k rows, each a unit d-vector
    projected: tuple[tuple[float, ...], ...]  # n rows, k columns
    explained: tuple[float, ...]  # all d ratios, descending
    retained: int


def _jacobi_eigh(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvectors (columns) of a symmetric matrix by cyclic
    Jacobi rotations."""
    d = len(a)
    m = [row[:] for row in a]
    vecs = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(math.fsum(m[i][j] ** 2 for i in range(d) for j in range(d) if i != j))
        if off < JACOBI_EPS:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = m[p][q]
                if apq == 0.0:
                    continue
                theta = (m[q][q] - m[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(d):
                    mkp, mkq = m[k][p], m[k][q]
                    m[k][p] = c * mkp - s * mkq
                    m[k][q] = s * mkp + c * mkq
                for k in range(d):
                    mpk, mqk = m[p][k], m[q][k]
                    m[p][k] = c * mpk - s * mqk
                    m[q][k] = s * mpk + c * mqk
                for k in range(d):
                    vkp, vkq = vecs[k][p], vecs[k][q]
                    vecs[k][p] = c * vkp - s * vkq
                    vecs[k][q] = s * vkp + c * vkq
    return [m[i][i] for i in range(d)], vecs


def pca(matrix: list[list[float]], variance_threshold: float = 0.9) -> PcaResult:
    """Principal components of the sample covariance; retains the smallest k
    whose cumulative explained variance reaches the threshold."""
    if not 0.0 < variance_threshold <= 1.0:
        raise InvariantError(f"variance threshold must be in (0, 1], got {variance_threshold}")
    n = len(matrix)
    if n < 2:
        raise InvariantError(f"pca needs >= 2 rows, got {n}")
    d = len(matrix[0])
    if any(len(row) != d for row in matrix):
        raise InvariantError("pca needs a rectangular matrix")

    means = [math.fsum(row[j] for row in matrix) / n for j in range(d)]
    centered = [[row[j] - means[j] for j in range(d)] for row in matrix]
    cov = [[0.0] * d for _ in range(d)]
    for j in range(d):
        for k in range(j, d):
            v = math.fsum(row[j] * row[k] for row in centered) / (n - 1)
            cov[j][k] = v
            cov[k][j] = v

    eigvals, eigvecs = _jacobi_eigh(cov)
    order = sorted(range(d), key=lambda i: eigvals[i], reverse=True)
    # Numerical noise can leave tiny negative eigenvalues on a PSD matrix.
    sorted_vals = [max(eigvals[i], 0.0) for i in order]
    total = math.fsum(sorted_vals)
    if total <= 0.0:
        explained = [0.0] * d
        k = 1
    else:
        explained = [v / total for v in sorted_vals]
        k = d
        acc = 0.0
        for i, ratio in enumerate(explained):
            acc += ratio
            if acc >= variance_threshold - 1e-12:
                k = i + 1
                break

    components = []
    for i in order[:k]:
        components.append(tuple(eigvecs[r][i] for r in range(d)))
    projected = []
    for row in centered:
        projected.append(tuple(math.fsum(row[j] * comp[j] for j in range(d)) for comp in components))
    return PcaResult(tuple(components), tuple(projected), tuple(explained), k)


# ---------------------------------------------------------------------------
# hierarchical clustering


def euclidean(a, b) -> float:
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))


@dataclass(frozen=True)
class MergeStep:
    a: int
    b: int
    distance: float
    new_id: int
    size: int


@dataclass(frozen=True)
class Dendrogram:
    leaf_count: int
    merges: tuple[MergeStep, ...]

    def __post_init__(self):
        if len(self.merges) != self.leaf_count - 1:
            raise InvariantError(
                f"{self.leaf_count} leaves need {self.leaf_count - 1} merges, "
                f"got {len(self.merges)}"
            )


def hcluster(points: list, linkage: str = "average") -> Dendrogram:
    """Agglomerative clustering under Euclidean distance.

    Cluster ids: leaves are 0..n-1, merges mint n, n+1, ... Each merge joins
    the closest pair of active clusters; ties break on the smallest (a, b) id
    pair, so the merge sequence is deterministic. Inter-cluster distances
    follow the Lance-Williams updates for the chosen linkage.
    """
    if linkage not in LINKAGES:
        raise InvariantError(f"unknown linkage {linkage!r}")
    n = len(points)
    if n < 2:
        raise InvariantError(f"hcluster needs >= 2 points, got {n}")

    dist: dict[tuple[int, int], float] = {}  # keyed by (smaller id, larger id)
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = euclidean(points[i], points[j])
    sizes = [1] * n  # indexed by cluster id
    active = list(range(n))  # ascending: each minted id is the largest yet
    merges: list[MergeStep] = []
    while len(active) > 1:
        # combinations of an ascending list come in ascending (a, b) order and
        # min keeps the first of equal keys, so the smallest pair wins a tie.
        a, b = min(combinations(active, 2), key=dist.__getitem__)
        new_id = len(sizes)
        active.remove(a)
        active.remove(b)
        for other in active:
            da = dist[min(a, other), max(a, other)]
            db = dist[min(b, other), max(b, other)]
            if linkage == "single":
                nd = min(da, db)
            elif linkage == "complete":
                nd = max(da, db)
            else:
                nd = (sizes[a] * da + sizes[b] * db) / (sizes[a] + sizes[b])
            dist[other, new_id] = nd
        active.append(new_id)
        sizes.append(sizes[a] + sizes[b])
        merges.append(MergeStep(a, b, dist[a, b], new_id, sizes[new_id]))
    return Dendrogram(n, tuple(merges))


def cut_dendrogram(dendrogram: Dendrogram, k: int) -> list[int]:
    """Cluster assignment per leaf when the tree is cut into k clusters.
    Assignments are renumbered 0..k-1 in first-leaf order."""
    n = dendrogram.leaf_count
    if not 1 <= k <= n:
        raise InvariantError(f"cut must be between 1 and {n}, got {k}")
    parent: dict[int, int] = {}
    for step in dendrogram.merges[: n - k]:
        parent[step.a] = step.new_id
        parent[step.b] = step.new_id

    def find(x: int) -> int:
        while x in parent:
            x = parent[x]
        return x

    roots: dict[int, int] = {}
    labels = []
    for leaf in range(n):
        root = find(leaf)
        if root not in roots:
            roots[root] = len(roots)
        labels.append(roots[root])
    return labels


def dendrogram_to_json(dendrogram: Dendrogram, labels: list[str]) -> dict:
    return {
        "leaves": list(labels),
        "merges": [
            {
                "a": step.a,
                "b": step.b,
                "distance": step.distance,
                "new_id": step.new_id,
                "size": step.size,
            }
            for step in dendrogram.merges
        ],
    }


def render_dendrogram(dendrogram: Dendrogram, labels: list[str]) -> str:
    """Indented text tree, deepest merges first under their parents."""
    children: dict[int, tuple[int, int, float]] = {
        step.new_id: (step.a, step.b, step.distance) for step in dendrogram.merges
    }
    lines: list[str] = []

    def walk(node: int, depth: int):
        pad = "  " * depth
        if node < dendrogram.leaf_count:
            lines.append(f"{pad}{labels[node]}")
            return
        a, b, dist_v = children[node]
        lines.append(f"{pad}+ d={dist_v:.6g}")
        walk(a, depth + 1)
        walk(b, depth + 1)

    walk(dendrogram.merges[-1].new_id if dendrogram.merges else 0, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# metric vector CSV: first column 'label', remaining columns metric names


def write_vectors_csv(path: str, vectors: list[MetricVector]):
    if not vectors:
        raise InvariantError("no vectors to write")
    names = vectors[0].names
    for v in vectors[1:]:
        if v.names != names:
            raise InvariantError(f"metric orderings differ at {v.label!r}")
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", *names])
        for v in vectors:
            writer.writerow([v.label, *(repr(x) for x in v.values)])


def append_vector_csv(path: str, vector: MetricVector):
    """Create the CSV with a header on first use; append rows afterwards,
    refusing mismatched metric orderings. A row is appended in place: copying
    the file to replace it atomically would make N appends cost O(N^2)."""
    if not os.path.exists(path):
        write_vectors_csv(path, [vector])
        return
    _, header = next(csv_records(read_input(path), path), (1, []))
    if header != ["label", *vector.names]:
        raise InvariantError(f"{path}: metric ordering does not match existing header")
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([vector.label, *(repr(x) for x in vector.values)])


def read_vectors_csv(path: str) -> list[MetricVector]:
    reader = csv_records(read_input(path), path)
    try:
        _, header = next(reader)
    except StopIteration:
        raise InvariantError(f"{path}: empty metrics file") from None
    if not header or header[0] != "label":
        raise InvariantError(f"{path}: first column must be 'label'")
    names = tuple(header[1:])
    vectors = []
    for lineno, row in reader:
        if not row:
            continue
        if len(row) != len(names) + 1:
            raise InvariantError(
                f"{path}:{lineno}: row has {len(row)} fields, header has {len(names) + 1}"
            )
        try:
            values = tuple(float(x) for x in row[1:])
        except ValueError:
            raise InvariantError(f"{path}:{lineno}: non-numeric metric value") from None
        vectors.append(MetricVector(row[0], names, values))
    return vectors
