"""Workload similarity: standardization, PCA, and agglomerative clustering.

The pipeline used by the cluster command: z-score the metric columns, project
onto the principal components that explain the requested variance share, then
merge clusters bottom-up under Euclidean distance. A short linkage distance
between two workloads means their metric profiles are close; the Dendrogram
merge list records every join and its distance.

The covariance eigendecomposition follows Press et al., Numerical Recipes,
11.2-11.3 (tred2 and tqli; Golub and Van Loan, 8.3). Householder reflections,
applied from the last row up as whole-row rank-2 updates, reduce the matrix
to tridiagonal form and accumulate the orthogonal basis. Implicit QL steps
with Wilkinson shifts then diagonalize the tridiagonal matrix; the basis is
stored one vector per row, so each Givens rotation rewrites two rows. An
off-diagonal entry counts as zero once |e_i| <= eps * max_j(|d_j| + |e_j|):
machine epsilon relative to a bound on the tridiagonal matrix's norm, taken
once after the reduction. An eigenvalue not isolated after QL_MAX_ITERATIONS
steps raises InvariantError. The reflections and rotations keep the basis
orthonormal by construction. PCA then fixes each component's sign so that
its largest-magnitude entry is positive.
"""

from __future__ import annotations

import io
import math
import os
import sys
from operator import add, itemgetter, mul
from typing import NamedTuple

from .dataio import _decode, csv_records, read_input, write_csv, write_csv_record
from .datasets import MetricVector, Record
from .errors import EventError, InvariantError
from .params import LINKAGES

QL_MAX_ITERATIONS = 30  # per eigenvalue, as in Numerical Recipes' tqli


def _finite_fsum(values, what: str) -> float:
    """math.fsum, raising InvariantError where the sum is not finite: fsum
    raises on a finite overflow and on inf + -inf, and returns an infinity
    when a term overflowed."""
    try:
        total = math.fsum(values)
        if math.isfinite(total):
            return total
    except (OverflowError, ValueError):
        pass
    raise InvariantError(f"{what} is not finite: metric values too large or NaN")


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
        col, what = cols[j], f"the variance of metric {names[j]!r}"
        mean = _finite_fsum(col, what) / n
        var = _finite_fsum(((x - mean) ** 2 for x in col), what) / (n - 1)
        if var > 0.0:
            std = math.sqrt(var)
            for i in range(n):
                out[i][j] = (col[i] - mean) / std
    return [v.label for v in vectors], out


# ---------------------------------------------------------------------------
# PCA


class PcaResult(NamedTuple):
    components: tuple[tuple[float, ...], ...]  # k rows, each a unit d-vector
    projected: tuple[tuple[float, ...], ...]  # n rows, k columns
    explained: tuple[float, ...]  # all d ratios, descending
    retained: int


def _tridiagonal_eigh(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvectors (columns) of a symmetric matrix by
    Householder tridiagonalization and implicit QL with Wilkinson shifts, as
    in Press et al., Numerical Recipes, sections 11.2 and 11.3."""
    d = len(a)
    m = [row[:] for row in a]
    z = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]  # row i: vector i
    off = [0.0] * d  # off[i] couples diagonal entries i and i + 1
    for i in range(d - 1, 0, -1):
        # Reflect row i's entries left of the subdiagonal to zero: P = I - u u^T / h
        # acts on the leading i x i block; rows j < i keep only their first i entries.
        row = m[i][:i]
        scale = math.fsum(map(abs, row))
        if i == 1 or scale == 0.0:  # nothing left of the subdiagonal to zero
            off[i - 1] = row[-1]
            continue
        u = [x / scale for x in row]
        h = math.fsum(map(mul, u, u))
        f = u[-1]
        g = -math.copysign(math.sqrt(h), f)
        off[i - 1] = scale * g
        h -= f * g
        u[-1] = f - g
        p = [math.fsum(map(mul, m[j], u)) / h for j in range(i)]
        k = math.fsum(map(mul, u, p)) / (h + h)
        q = [x - k * y for x, y in zip(p, u)]
        for j in range(i):
            qj, uj = q[j], u[j]
            m[j] = [x - qj * y - uj * t for x, y, t in zip(m[j][:i], u, q)]
        w = [0.0] * d  # u^T z / h, then z <- P z
        for j in range(i):
            uj = u[j] / h
            w = [x + uj * y for x, y in zip(w, z[j])]
        for j in range(i):
            uj = u[j]
            z[j] = [x - uj * y for x, y in zip(z[j], w)]
    diag = [m[i][i] for i in range(d)]
    tol = sys.float_info.epsilon * max(map(add, map(abs, diag), map(abs, off)), default=0.0)
    for l in range(d):
        for iteration in range(QL_MAX_ITERATIONS + 1):
            last = l  # the first negligible coupling at or after l closes the block
            while last < d - 1 and abs(off[last]) > tol:
                last += 1
            if last == l:
                break
            if iteration == QL_MAX_ITERATIONS:
                raise InvariantError(
                    f"QL eigendecomposition did not converge in {QL_MAX_ITERATIONS} "
                    f"iterations at eigenvalue {l} (coupling {abs(off[l]):.3g}, "
                    f"tolerance {tol:.3g})"
                )
            g = (diag[l + 1] - diag[l]) / (2.0 * off[l])
            g = diag[last] - diag[l] + off[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(last - 1, l - 1, -1):
                f, b = s * off[i], c * off[i]
                off[i + 1] = r = math.hypot(f, g)
                if r == 0.0:  # the block splits at i + 1: restart on the smaller one
                    diag[i + 1] -= p
                    off[last] = 0.0
                    break
                s, c = f / r, g / r
                g = diag[i + 1] - p
                r = (diag[i] - g) * s + 2.0 * c * b
                p = s * r
                diag[i + 1] = g + p
                g = c * r - b
                zi, zn = z[i], z[i + 1]
                z[i + 1] = [s * x + c * y for x, y in zip(zi, zn)]
                z[i] = [c * x - s * y for x, y in zip(zi, zn)]
            else:
                diag[l] -= p
                off[l] = g
                off[last] = 0.0
    return diag, [list(col) for col in zip(*z)]


def pca(matrix: list[list[float]], variance_threshold: float = 0.9) -> PcaResult:
    """Principal components of the sample covariance; retains the smallest k
    whose cumulative explained variance reaches the threshold."""
    if not 0.0 < variance_threshold <= 1.0:
        raise InvariantError(f"variance threshold must be in (0, 1], got {variance_threshold}")
    n = len(matrix)
    if n < 2:
        raise InvariantError(f"pca needs >= 2 rows, got {n}")
    d = len(matrix[0])
    if d == 0:
        raise InvariantError("pca needs at least one metric column")
    if any(len(row) != d for row in matrix):
        raise InvariantError("pca needs a rectangular matrix")

    # Column passes fsum the products a pass over rows would, so the bits are the same.
    cols = []
    for col in zip(*matrix):
        mean = _finite_fsum(col, "a mean") / n
        cols.append([x - mean for x in col])
    cov = [[0.0] * d for _ in range(d)]
    for j, col in enumerate(cols):
        for k in range(j, d):
            cov[j][k] = cov[k][j] = _finite_fsum(map(mul, col, cols[k]), "a covariance") / (n - 1)

    eigvals, eigvecs = _tridiagonal_eigh(cov)
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
        comp = [eigvecs[r][i] for r in range(d)]
        # An eigenvector's sign is arbitrary: make its largest-magnitude entry
        # (the first on a tie) positive, so components do not depend on the solver.
        if max(comp, key=abs) < 0.0:
            comp = [-x for x in comp]
        components.append(tuple(comp))
    projected = tuple(tuple(math.fsum(map(mul, row, comp)) for comp in components)
                      for row in zip(*cols))
    return PcaResult(tuple(components), projected, tuple(explained), k)


# ---------------------------------------------------------------------------
# hierarchical clustering


def euclidean(a, b) -> float:
    return math.sqrt(_finite_fsum(((x - y) ** 2 for x, y in zip(a, b)), "a distance"))


class MergeStep(NamedTuple):
    a: int
    b: int
    distance: float
    new_id: int
    size: int


class Dendrogram(Record):
    __slots__ = _fields = ("leaf_count", "merges")

    def __init__(self, leaf_count: int, merges: tuple[MergeStep, ...]):
        if len(merges) != leaf_count - 1:
            raise InvariantError(
                f"{leaf_count} leaves need {leaf_count - 1} merges, got {len(merges)}")
        self._set(leaf_count=leaf_count, merges=merges)


def hcluster(points: list, linkage: str = "average") -> Dendrogram:
    """Agglomerative clustering under Euclidean distance.

    Cluster ids: leaves are 0..n-1, merges mint n, n+1, ... Each merge joins
    the closest pair of active clusters; ties break on the smallest (a, b) id
    pair, so the merge sequence is deterministic. Inter-cluster distances
    follow the Lance-Williams updates for the chosen linkage.

    A nearest-neighbour cache finds each pair (Muellner, arXiv:1109.2378,
    section 3): each active a keeps its nearest active b > a, the smallest b
    on a tie, and the merge is at the smallest (distance, a). Only rows whose
    neighbour was merged, or that had none, are rescanned; the new id is the
    largest, so other rows take it only if strictly nearer.
    """
    if linkage not in LINKAGES:
        raise InvariantError(f"unknown linkage {linkage!r}")
    n = len(points)
    if n < 2:
        raise InvariantError(f"hcluster needs >= 2 points, got {n}")

    # rows[x][y]: the distance of active x < y, both levels in ascending id
    # order, as each minted id is the largest yet; so min keeps the smallest id
    rows = {x: {y: euclidean(points[x], points[y]) for y in range(x + 1, n)} for x in range(n)}
    by_distance = itemgetter(1)
    # x -> (nearest y, distance) for every active x but the largest, in ascending
    # x: a row gains its first neighbour only when it is the largest but one
    nearest = {x: min(rows[x].items(), key=by_distance) for x in range(n - 1)}
    sizes = [1] * n  # indexed by cluster id
    merges: list[MergeStep] = []
    while nearest:
        a = min(nearest, key=lambda x: nearest[x][1])
        b, d_ab = nearest.pop(a)
        nearest.pop(b, None)
        new_id = len(sizes)
        row_a, row_b = rows.pop(a), rows.pop(b)
        size_a, size_b = sizes[a], sizes[b]
        for other, row in rows.items():
            da = row.pop(a) if other < a else row_a[other]
            db = row.pop(b) if other < b else row_b[other]
            if linkage == "single":
                nd = min(da, db)
            elif linkage == "complete":
                nd = max(da, db)
            else:
                nd = (size_a * da + size_b * db) / (size_a + size_b)
            row[new_id] = nd
            old = nearest.get(other)
            if old is None or old[0] == a or old[0] == b:
                nearest[other] = min(row.items(), key=by_distance)
            elif nd < old[1]:
                nearest[other] = (new_id, nd)
        rows[new_id] = {}
        sizes.append(size_a + size_b)
        merges.append(MergeStep(a, b, d_ab, new_id, sizes[new_id]))
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
        "merges": [step._asdict() for step in dendrogram.merges],
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
    write_csv(path, ["label", *names], ([v.label, *v.values] for v in vectors))


def append_vector_csv(path: str, vector: MetricVector):
    """Create the CSV with a header on first use, when the file is absent or
    holds no record, only line terminators; append rows afterwards, refusing
    mismatched metric orderings, after a newline if the file's last line
    lacks one. Only the header record and the last byte are read and
    decoded, and a row is appended in place: reading the rows, or copying
    the file to replace it atomically, would make N appends cost O(N^2)."""
    if os.path.exists(path):
        with open(path, "a+b") as fh:
            fh.seek(0)
            lines = (_decode(line, path, n) for n, line in enumerate(fh, 1))
            records = (record for _, record in csv_records(lines, path))
            header = next(records, [])
            if header or any(records):
                if header != ["label", *vector.names]:
                    raise InvariantError("metric ordering does not match existing header",
                                         path=path)
                row = io.StringIO()
                fh.seek(-1, os.SEEK_END)  # a record was read, so the file is not empty
                if fh.read(1) != b"\n":
                    row.write("\n")
                write_csv_record(row, [vector.label, *vector.values])
                fh.write(row.getvalue().encode("utf-8"))
                return
    write_vectors_csv(path, [vector])


def read_vectors_csv(path: str) -> list[MetricVector]:
    reader = csv_records(read_input(path), path)
    try:
        _, header = next(reader)
    except StopIteration:
        raise InvariantError("empty metrics file", path=path) from None
    if not header or header[0] != "label":
        raise InvariantError("first column must be 'label'", path=path)
    names = tuple(header[1:])
    vectors = []
    for lineno, row in reader:
        if not row:
            continue
        if len(row) != len(names) + 1:
            raise InvariantError(f"row has {len(row)} fields, header has {len(names) + 1}",
                                 path=path, line=lineno)
        try:
            vectors.append(MetricVector(row[0], names, tuple(map(float, row[1:]))))
        except ValueError:
            raise InvariantError("non-numeric metric value", path=path, line=lineno) from None
        except EventError as exc:
            raise EventError(str(exc), path=path, line=lineno) from None
    return vectors
