"""Graph-family kernels: connected components and PageRank."""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import ge, sub

from ..datasets import Graph
from ..errors import KernelError
from ..floatsum import left_sum


def connected_components(g: Graph) -> list[int]:
    """Component label per vertex, treating edges as undirected; each label is
    the minimum vertex id in its component."""
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    labels = [-1] * g.vertex_count
    for start in range(g.vertex_count):
        if labels[start] != -1:
            continue
        # Scanning vertices in ascending order makes the BFS root the minimum
        # id of its component.
        labels[start] = start
        queue = [start]
        for u in queue:  # visits each vertex appended below, in FIFO order
            for v in adj[u]:
                if labels[v] == -1:
                    labels[v] = start
                    queue.append(v)
    return labels


def pagerank(g: Graph, damping: float, max_iters: int, tol: float) -> list[float]:
    """Power iteration with uniform teleport.

    Dangling-node mass is redistributed uniformly each iteration; parallel
    edges each carry their own share of the source's score. Scores sum to 1.
    Stops after max_iters, or after the first iteration whose L1 change,
    added from the left, is below tol; tol=0 runs exactly max_iters. The
    test stops adding at the first partial sum that reaches tol: partial sums
    of non-negative terms never decrease, so the whole sum is below tol
    exactly when no partial sum reaches it.
    """
    if not g.directed:
        raise KernelError("pagerank needs a directed graph")
    n = g.vertex_count
    out_edges: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        out_edges[u].append(v)
    outdeg = [len(targets) for targets in out_edges]
    dangling_vertices = [u for u in range(n) if outdeg[u] == 0]

    score = [1.0 / n] * n
    for _ in range(max_iters):
        dangling = left_sum(map(score.__getitem__, dangling_vertices))
        base = (1.0 - damping) / n + damping * dangling / n
        nxt = [base] * n
        for u in range(n):
            if outdeg[u] == 0:
                continue
            share = damping * score[u] / outdeg[u]
            for v in out_edges[u]:
                nxt[v] += share
        converged = not any(map(ge, accumulate(map(abs, map(sub, nxt, score))), repeat(tol)))
        score = nxt
        if converged:
            break
    return score
