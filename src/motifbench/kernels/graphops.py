"""Graph-family kernels: connected components and PageRank."""

from __future__ import annotations

import operator
from collections import deque

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
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if labels[v] == -1:
                    labels[v] = start
                    queue.append(v)
    return labels


def pagerank(g: Graph, damping: float, max_iters: int, tol: float) -> list[float]:
    """Power iteration with uniform teleport.

    Dangling-node mass is redistributed uniformly each iteration; parallel
    edges each carry their own share of the source's score. Stops when the L1
    change drops below tol or after max_iters. Scores sum to 1.
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
        delta = left_sum(map(abs, map(operator.sub, nxt, score)))
        score = nxt
        if delta < tol:
            break
    return score
