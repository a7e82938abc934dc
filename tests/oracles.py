"""Independent brute-force oracles.

These deliberately reimplement each kernel with a different algorithm or code
shape (naive DFT instead of the fast transform, union-find instead of BFS,
classic triple loops instead of row-blocked accumulation) so agreement is
meaningful.
"""

from __future__ import annotations

import cmath
import math
import struct

from motifbench.datasets import TABLE_KINDS, Table
from motifbench.errors import InvariantError, KernelError
from motifbench.rng import SplitMix64
from motifbench.similarity import Dendrogram, MergeStep, euclidean


def stable_mergesort(records: list, key):
    """Bottom-up mergesort; stable by taking from the left run on ties."""
    runs = [[r] for r in records]
    if not runs:
        return []
    while len(runs) > 1:
        merged = []
        for i in range(0, len(runs) - 1, 2):
            left, right = runs[i], runs[i + 1]
            out = []
            li = ri = 0
            while li < len(left) and ri < len(right):
                if key(right[ri]) < key(left[li]):
                    out.append(right[ri])
                    ri += 1
                else:
                    out.append(left[li])
                    li += 1
            out.extend(left[li:])
            out.extend(right[ri:])
            merged.append(out)
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0]


def scan_grep(lines: list[str], pattern: str) -> list[str]:
    """Character-window substring scan, no str.__contains__."""
    hits = []
    m = len(pattern)
    for line in lines:
        found = False
        for start in range(0, len(line) - m + 1):
            if line[start : start + m] == pattern:
                found = True
                break
        if found:
            hits.append(line)
    return hits


def nested_loop_set_op(a: dict, b: dict, op: str) -> dict:
    out = {}
    if op == "union":
        for k, v in a.items():
            out[k] = v
        for k, v in b.items():
            present = False
            for k2 in a:
                if k2 == k:
                    present = True
                    break
            if not present:
                out[k] = v
    elif op == "intersect":
        for k, v in a.items():
            for k2 in b:
                if k2 == k:
                    out[k] = v
                    break
    else:
        for k, v in a.items():
            hit = False
            for k2 in b:
                if k2 == k:
                    hit = True
                    break
            if not hit:
                out[k] = v
    return out


def tally_wordcount(lines: list[str]) -> dict[str, int]:
    from collections import Counter

    counter: Counter = Counter()
    for line in lines:
        counter.update(line.split())
    return dict(counter)


def triple_loop_matmul(a_rows, a_cols, a_data, b_cols, b_data):
    out = []
    for i in range(a_rows):
        for j in range(b_cols):
            acc = 0.0
            for k in range(a_cols):
                acc += a_data[i * a_cols + k] * b_data[k * b_cols + j]
            out.append(acc)
    return out


def naive_dft(values, inverse=False):
    n = len(values)
    sign = 1.0 if inverse else -1.0
    out = []
    for k in range(n):
        acc = 0j
        for t in range(n):
            acc += values[t] * cmath.exp(sign * 2j * math.pi * k * t / n)
        out.append(acc / n if inverse else acc)
    return out


def naive_dft2d(grid, inverse=False):
    rows, cols = len(grid), len(grid[0])
    sign = 1.0 if inverse else -1.0
    out = [[0j] * cols for _ in range(rows)]
    for u in range(rows):
        for v in range(cols):
            acc = 0j
            for i in range(rows):
                for j in range(cols):
                    acc += grid[i][j] * cmath.exp(sign * 2j * math.pi * (u * i / rows + v * j / cols))
            out[u][v] = acc / (rows * cols) if inverse else acc
    return out


def scalar_fft(values, inverse=False):
    """Iterative radix-2 Cooley-Tukey, one butterfly at a time, with the
    twiddle advanced by w *= w_span; transform.fft must match it bit for bit."""
    n = len(values)
    data = [complex(v) for v in values]
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            data[i], data[j] = data[j], data[i]
    sign = 1.0 if inverse else -1.0
    span = 2
    while span <= n:
        ang = sign * 2.0 * math.pi / span
        w_span = complex(math.cos(ang), math.sin(ang))
        half = span >> 1
        for start in range(0, n, span):
            w = 1.0 + 0.0j
            for k in range(start, start + half):
                u = data[k]
                v = data[k + half] * w
                data[k] = u + v
                data[k + half] = u - v
                w *= w_span
        span <<= 1
    if inverse:
        inv_n = 1.0 / n
        data = [v * inv_n for v in data]
    return data


def scalar_fft2d(grid, inverse=False):
    """scalar_fft over every row, then over every column."""
    rows, cols = len(grid), len(grid[0])
    stage1 = [scalar_fft(row, inverse) for row in grid]
    out = [[0j] * cols for _ in range(rows)]
    for j in range(cols):
        col = scalar_fft([stage1[i][j] for i in range(rows)], inverse)
        for i in range(rows):
            out[i][j] = col[i]
    return out


def naive_convolution(x_shape, x_data, k_shape, k_data, stride, pad_top, pad_left, oh, ow):
    """Seven plain loops over the output volume; taps outside the input are
    skipped. Each output adds its products in (u, v, ci) order from 0.0, so
    transform.convolution must match it bit for bit."""
    batch, h, w, cin = x_shape
    kh, kw, _, cout = k_shape
    out = []
    for b in range(batch):
        for i in range(oh):
            for j in range(ow):
                for co in range(cout):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            si = i * stride + u - pad_top
                            sj = j * stride + v - pad_left
                            if si < 0 or si >= h or sj < 0 or sj >= w:
                                continue
                            for ci in range(cin):
                                xv = x_data[((b * h + si) * w + sj) * cin + ci]
                                kv = k_data[((u * kw + v) * cin + ci) * cout + co]
                                acc += xv * kv
                    out.append(acc)
    return out


def window_pool(shape, data, window, stride, mode):
    """One window list per output cell and channel, taps in (u, v) order;
    max() of it, or its left-to-right sum from 0 divided by the area."""
    batch, h, w, c = shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = []
    for b in range(batch):
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    vals = [
                        data[((b * h + (i * stride + u)) * w + (j * stride + v)) * c + ch]
                        for u in range(window)
                        for v in range(window)
                    ]
                    if mode == "max":
                        out.append(max(vals))
                    else:
                        acc = 0
                        for x in vals:
                            acc = acc + x
                        out.append(acc / (window * window))
    return out


def scalar_gauss(rng, mu, sigma):
    """One Box-Muller draw from two rng.random() values, drawing u1 again
    while it is 0.0; no cached spare."""
    u1 = rng.random()
    while u1 <= 0.0:
        u1 = rng.random()
    u2 = rng.random()
    r = math.sqrt(-2.0 * math.log(u1))
    return mu + sigma * r * math.cos(2.0 * math.pi * u2)


def scalar_gaussian_draws(rng, mu, sigma, n):
    """n Box-Muller draws, one scalar_gauss() call each."""
    return [scalar_gauss(rng, mu, sigma) for _ in range(n)]


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def union_find_components(vertex_count: int, edges) -> list[int]:
    uf = UnionFind(vertex_count)
    for u, v in edges:
        uf.union(u, v)
    # label = minimum vertex id in the component
    mins: dict[int, int] = {}
    for v in range(vertex_count):
        root = uf.find(v)
        if root not in mins:
            mins[root] = v
        mins[root] = min(mins[root], v)
    return [mins[uf.find(v)] for v in range(vertex_count)]


def dense_pagerank(vertex_count: int, edges, damping: float, iters: int) -> list[float]:
    """Dense transition-matrix power iteration (numpy), with uniform
    dangling redistribution and teleport."""
    import numpy as np

    n = vertex_count
    m = np.zeros((n, n))
    outdeg = np.zeros(n)
    for u, v in edges:
        outdeg[u] += 1
    for u, v in edges:
        m[v, u] += 1.0 / outdeg[u]
    dangling = outdeg == 0
    score = np.full(n, 1.0 / n)
    for _ in range(iters):
        redistributed = damping * score[dangling].sum() / n
        score = (1 - damping) / n + damping * (m @ score) + redistributed
    return score.tolist()


def scalar_pagerank(vertex_count: int, edges, damping: float, max_iters: int,
                    tol: float) -> tuple[list[float], list[float]]:
    """Sparse power iteration as plain loops: each iteration adds the whole
    L1 change from 0, left to right, and stops once it is below tol. Returns
    the scores and each iteration's change."""
    n = vertex_count
    out_edges: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        out_edges[u].append(v)
    score = [1.0 / n] * n
    deltas = []
    for _ in range(max_iters):
        dangling = 0
        for u in range(n):
            if not out_edges[u]:
                dangling += score[u]
        nxt = [(1.0 - damping) / n + damping * dangling / n] * n
        for u in range(n):
            if out_edges[u]:
                share = damping * score[u] / len(out_edges[u])
                for v in out_edges[u]:
                    nxt[v] += share
        delta = 0
        for new, old in zip(nxt, score):
            delta += abs(new - old)
        deltas.append(delta)
        score = nxt
        if delta < tol:
            break
    return score, deltas


def scalar_rmat_edges(rng, vertices: int, edges: int, probs) -> list[tuple[int, int]]:
    """Per-level RMAT: one rng.random() per level per edge, compared as a
    float against the cumulative probabilities, the top bit first."""
    a, b, c, _ = probs
    levels = vertices.bit_length() - 1
    ab, abc = a + b, a + b + c
    edge_list = []
    for _ in range(edges):
        u = v = 0
        for _ in range(levels):
            u <<= 1
            v <<= 1
            r = rng.random()
            if r < a:
                pass
            elif r < ab:
                v |= 1
            elif r < abc:
                u |= 1
            else:
                u |= 1
                v |= 1
        edge_list.append((u, v))
    return edge_list


def scalar_uniform_edges(rng, vertices: int, edges: int) -> list[tuple[int, int]]:
    """Uniform edges, one rng.below() call per endpoint, u before v."""
    return [(rng.below(vertices), rng.below(vertices)) for _ in range(edges)]


_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def scalar_order_item_rows(rng, order_rows: int, item_rows: int) -> tuple[list, list]:
    """ORDER and ITEM rows, one rng.below() call per drawn cell: each order's
    buyer, month and day, then each item's order, goods, number and price."""
    orders = []
    for oid in range(1, order_rows + 1):
        buyer = 1 + rng.below(order_rows)
        month = rng.below(12)
        day = 1 + rng.below(_DAYS_IN_MONTH[month])
        orders.append((oid, buyer, f"2023-{month + 1:02d}-{day:02d}"))
    items = []
    for iid in range(1, item_rows + 1):
        order_id = 1 + rng.below(order_rows)
        goods_id = 1 + rng.below(10000)
        number = 1 + rng.below(10)
        price = (1 + rng.below(99999)) / 100.0
        items.append((iid, order_id, goods_id, number, price, number * price))
    return orders, items


def scalar_text_lines(seed_documents, target_bytes: int, rng) -> list[str]:
    """gen_text's lines, one rng.below() call per line length and per word,
    each word drawn by a linear scan of its context's sorted counts."""
    counts: dict = {}
    lengths = []
    prev = None
    for line in seed_documents:
        tokens = line.split()
        if tokens:
            lengths.append(len(tokens))
        for tok in tokens:
            counts.setdefault(None, {}).setdefault(tok, 0)
            counts[None][tok] += 1
            if prev is not None:
                counts.setdefault(prev, {}).setdefault(tok, 0)
                counts[prev][tok] += 1
            prev = tok

    def pick(context):
        table = counts.get(context, counts[None])
        x = rng.below(sum(table.values()))
        for word in sorted(table):
            if x < table[word]:
                return word
            x -= table[word]

    def size(words):
        return len(" ".join(words).encode("utf-8")) + 1

    cap = target_bytes + max(1, target_bytes // 20)
    lines: list[str] = []
    total = 0
    while total < target_bytes:
        words: list[str] = []
        for _ in range(lengths[rng.below(len(lengths))]):
            words.append(pick(words[-1] if words else None))
        fits = total + size(words) <= cap
        while len(words) > 1 and total + size(words) > cap:
            words.pop()
        if total + size(words) <= cap:
            lines.append(" ".join(words))
            total += size(words)
        if not fits:
            break
    return lines


def scalar_keep(rng, records, fraction: float) -> list:
    """The records kept by one rng.random() < fraction test each, in order."""
    return [r for r in records if rng.random() < fraction]


def scalar_dropout(rng, values, p: float) -> list[float]:
    """Inverted dropout, one rng.random() < p test per value."""
    if p == 1.0:
        return [0.0] * len(values)
    scale = 1.0 / (1.0 - p)
    return [0.0 if rng.random() < p else v * scale for v in values]


def scalar_table_bytes(table) -> bytes:
    """canonical_bytes of a table, encoded one cell at a time, row by row."""
    out = [b"tabl\x00", struct.pack("<Q", len(table.schema))]
    for text in (s for pair in table.schema for s in pair):
        raw = text.encode("utf-8")
        out += [struct.pack("<Q", len(raw)), raw]
    out.append(struct.pack("<Q", len(table.rows)))
    for row in table.rows:
        for (_, kind), value in zip(table.schema, row):
            if kind == "integer":
                out.append(struct.pack("<q", value))
            elif kind == "real":
                out.append(struct.pack("<d", value))
            else:
                raw = value.encode("utf-8")
                out += [struct.pack("<Q", len(raw)), raw]
    return b"".join(out)


# Payload value checks, one value at a time: the constructors' per-value loops
# as they were before the whole-column checks. Each returns what the
# constructor stores, or raises InvariantError naming the first bad value.


def _require(cond: bool, message: str):
    if not cond:
        raise InvariantError(message)


def _require_utf8(value: str, subject: str):
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvariantError(f"{subject} is not valid UTF-8: {exc}") from None


def scalar_corpus_documents(documents) -> tuple:
    docs = tuple(documents)
    for i, line in enumerate(docs):
        _require(isinstance(line, str), f"document {i} is not a string")
        if "\n" in line or "\r" in line:
            raise InvariantError(f"document {i} contains a line terminator")
        _require_utf8(line, f"document {i}")
    return docs


def scalar_table_rows(schema, rows) -> tuple:
    """The rows of a table over a valid `schema`."""
    norm_rows = []
    for r, row in enumerate(rows):
        row = tuple(row)
        _require(len(row) == len(schema),
                 f"row {r} has arity {len(row)}, schema has {len(schema)}")
        out = []
        for (name, kind), value in zip(schema, row):
            if kind == "integer":
                _require(isinstance(value, int) and not isinstance(value, bool)
                         and -2**63 <= value < 2**63,
                         f"row {r} column {name!r}: expected a 64-bit integer, got {value!r}")
                out.append(value)
            elif kind == "real":
                _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                         f"row {r} column {name!r}: expected real, got {value!r}")
                fv = float(value)
                _require(math.isfinite(fv), f"row {r} column {name!r}: non-finite value")
                out.append(fv)
            else:
                _require(isinstance(value, str),
                         f"row {r} column {name!r}: expected string, got {value!r}")
                _require_utf8(value, f"row {r} column {name!r}")
                out.append(value)
        norm_rows.append(tuple(out))
    return tuple(norm_rows)


def scalar_kv_entries(entries) -> dict:
    items = list(entries.items()) if isinstance(entries, dict) else list(entries)
    norm = {}
    for key, value in items:
        _require(isinstance(key, str), f"key {key!r} is not a string")
        _require(isinstance(value, str), f"value for key {key!r} is not a string")
        _require(key not in norm, f"duplicate key {key!r}")
        for bad in ("\t", "\n", "\r"):
            _require(bad not in key, f"key {key!r} contains {bad!r}")
        for bad in ("\n", "\r"):
            _require(bad not in value, f"value for {key!r} contains {bad!r}")
        _require_utf8(key, f"key {key!r}")
        _require_utf8(value, f"value for key {key!r}")
        norm[key] = value
    return norm


def row_covariance(matrix: list[list[float]]) -> list[list[float]]:
    """The sample covariance pca diagonalizes, taken row by row: each entry
    one fsum over the rows of the centered matrix."""
    n, d = len(matrix), len(matrix[0])
    means = [math.fsum(row[j] for row in matrix) / n for j in range(d)]
    centered = [[row[j] - means[j] for j in range(d)] for row in matrix]
    return [[math.fsum(r[j] * r[k] for r in centered) / (n - 1) for k in range(d)]
            for j in range(d)]


def set_scan_hcluster(points: list, linkage: str = "average") -> Dendrogram:
    """Lance-Williams agglomeration over a set of active cluster ids, each
    merge found by a strict-< scan of every sorted (x, y) pair. hcluster must
    return the same Dendrogram: same pairs, same ties, same float distances."""
    n = len(points)
    dist: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = euclidean(points[i], points[j])
    sizes = {i: 1 for i in range(n)}
    active = set(range(n))
    merges: list[MergeStep] = []
    next_id = n

    def d_of(x: int, y: int) -> float:
        return dist[(x, y) if x < y else (y, x)]

    while len(active) > 1:
        best = None
        # Ascending (x, y) scan plus strict < keeps the smallest id pair on ties.
        for x in sorted(active):
            for y in sorted(active):
                if y <= x:
                    continue
                v = d_of(x, y)
                if best is None or v < best[0]:
                    best = (v, x, y)
        v, a, b = best
        new_id = next_id
        next_id += 1
        for other in active:
            if other in (a, b):
                continue
            da, db = d_of(a, other), d_of(b, other)
            if linkage == "single":
                nd = min(da, db)
            elif linkage == "complete":
                nd = max(da, db)
            else:
                nd = (sizes[a] * da + sizes[b] * db) / (sizes[a] + sizes[b])
            dist[(min(other, new_id), max(other, new_id))] = nd
        active.discard(a)
        active.discard(b)
        active.add(new_id)
        sizes[new_id] = sizes[a] + sizes[b]
        merges.append(MergeStep(a, b, v, new_id, sizes[new_id]))
    return Dendrogram(n, tuple(merges))


# The stopping rule cyclic_jacobi_eigh and textbook_jacobi_eigh run with,
# fixed here so that a test patching similarity's iteration cap leaves the
# oracles as they are.
JACOBI_EPS = 1e-12
JACOBI_MAX_SWEEPS = 100


def cyclic_jacobi_eigh(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvectors (columns) of a symmetric matrix by cyclic
    Jacobi rotations: every (p, q) of every sweep rotated through whole rows
    and columns, until the absolute off-diagonal norm is below JACOBI_EPS."""
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


def textbook_jacobi_eigh(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvectors (columns) of a symmetric matrix by cyclic
    Jacobi rotations, as in Press et al., Numerical Recipes, section 11.1."""
    d = len(a)
    m = [row[:] for row in a]
    v = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]  # row i: vector i
    tol = JACOBI_EPS * math.sqrt(math.fsum(x * x for row in m for x in row))
    for sweep in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(2.0 * math.fsum(m[p][q] ** 2 for p in range(d) for q in range(p + 1, d)))
        if off <= tol:
            return [m[i][i] for i in range(d)], [list(col) for col in zip(*v)]
        thresh = 0.2 * off / (d * d) if sweep < 3 else 0.0
        for p in range(d - 1):
            mp, vp = m[p], v[p]
            for q in range(p + 1, d):
                mq, vq = m[q], v[q]
                app, aqq, apq = mp[p], mq[q], mp[q]
                g = 100.0 * abs(apq)
                if sweep >= 3 and abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                    mp[q] = mq[p] = 0.0  # a rotation would move neither diagonal entry
                    continue
                if abs(apq) <= thresh:
                    continue
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                # Rows and columns p and q for every k; the four entries of
                # the (p, q) block that this also writes are set just after.
                for k, mk in enumerate(m):
                    g, h = mk[p], mk[q]
                    mk[p] = mp[k] = g - s * (h + g * tau)
                    mk[q] = mq[k] = h + s * (g - h * tau)
                    g, h = vp[k], vq[k]
                    vp[k] = g - s * (h + g * tau)
                    vq[k] = h + s * (g - h * tau)
                mp[p], mq[q] = app - t * apq, aqq + t * apq
                mp[q] = mq[p] = 0.0
    raise InvariantError(
        f"Jacobi eigendecomposition did not converge in {JACOBI_MAX_SWEEPS} sweeps "
        f"(off-diagonal norm {off:.3g}, tolerance {tol:.3g})"
    )


# Relational kernels in row form: each walks the table's rows and builds its
# result from row tuples, as the kernels did before tables kept columns.

_ROW_COMPARATORS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}


def table_of_rows(schema, rows) -> Table:
    """The Table of the sequence `rows`, each a tuple of one cell per schema
    entry."""
    for r, row in enumerate(rows):
        assert len(row) == len(schema), f"row {r} has {len(row)} cells, schema has {len(schema)}"
    return Table(schema, list(zip(*rows)) or [()] * len(schema))


def _row_index(t, name: str) -> int:
    names = [n for n, _ in t.schema]
    if name not in names:
        raise KernelError(f"unknown column {name!r}")
    return names.index(name)


def row_project(t, columns: list[str]):
    idx = [_row_index(t, c) for c in columns]
    return table_of_rows([t.schema[i] for i in idx],
                         [tuple(row[i] for i in idx) for row in t.rows])


def row_filter(t, column: str, cmp: str, value):
    i = _row_index(t, column)
    kind = t.schema[i][1]
    try:  # a literal its column would refuse as a cell is refused; UnicodeError is a ValueError
        lit = TABLE_KINDS[kind].parse(value)
        if (kind == "integer" and not -2**63 <= lit < 2**63
                or kind == "real" and not math.isfinite(lit)):
            raise ValueError(lit)
        if kind == "string":
            lit.encode("utf-8")
    except ValueError:
        raise KernelError(f"literal {value!r} is not a valid {kind}") from None
    pred = _ROW_COMPARATORS[cmp]
    return table_of_rows(t.schema, [row for row in t.rows if pred(row[i], lit)])


def row_union(a, b):
    if a.schema != b.schema:
        raise KernelError(f"schema mismatch on union: {a.schema} vs {b.schema}")
    return table_of_rows(a.schema, list(a.rows) + list(b.rows))


def row_aggregate(t, group: str, agg: str, target):
    gi = _row_index(t, group)
    group_kind = t.schema[gi][1]
    order, cells = [], {}
    ti = None if agg == "count" else _row_index(t, target)
    for row in t.rows:
        key = row[gi]
        if key not in cells:
            order.append(key)
            cells[key] = []
        cells[key].append(None if ti is None else row[ti])
    if agg == "count":
        return table_of_rows([(group, group_kind), ("count", "integer")],
                             [(k, len(cells[k])) for k in order])
    target_kind = t.schema[ti][1]
    if target_kind not in ("integer", "real"):
        raise KernelError(f"{agg} target {target!r} must be numeric, is {target_kind}")
    if agg == "sum" and target_kind == "integer":
        return table_of_rows([(group, group_kind), (f"sum_{target}", "integer")],
                             [(k, sum(cells[k])) for k in order])
    if agg == "sum":
        return table_of_rows([(group, group_kind), (f"sum_{target}", "real")],
                             [(k, math.fsum(cells[k])) for k in order])
    return table_of_rows([(group, group_kind), (f"avg_{target}", "real")],
                         [(k, math.fsum(cells[k]) / len(cells[k])) for k in order])


def row_sort(t, key: int):
    if not 0 <= key < len(t.schema):
        raise KernelError(f"key {key} out of range for table with {len(t.schema)} columns")
    return table_of_rows(t.schema, sorted(t.rows, key=lambda row: row[key]))


def row_sample(t, fraction: float, seed: int):
    rng = SplitMix64(seed)
    return table_of_rows(t.schema, [row for row in t.rows if rng.random() < fraction])
