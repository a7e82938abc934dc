"""Statistic-family kernels: token counting, grouped aggregation, record
counting, and the two normalization layers.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from itertools import chain

from ..datasets import Graph, KeyValueSet, Matrix, Payload, Table, Tensor, TextCorpus
from ..errors import KernelError
from .sets import column_index


def wordcount(corpus: TextCorpus) -> KeyValueSet:
    """Multiplicity of every whitespace-delimited token across all lines."""
    counts = Counter(chain.from_iterable(map(str.split, corpus.documents)))
    return KeyValueSet({token: str(n) for token, n in counts.items()})


def aggregate(t: Table, group: str, agg: str, target: str | None) -> Table:
    """One row per distinct group key, in first-appearance order.

    count needs no target; sum/avg need a numeric target column and accumulate
    with exact extended-precision summation.
    """
    gi = column_index(t, group)
    group_kind = t.schema[gi][1]
    keys = t.columns[gi]

    if agg == "count":
        counts = Counter(keys)
        schema = [(group, group_kind), ("count", "integer")]
        return Table(schema, [counts, counts.values()])

    ti = column_index(t, target)
    target_kind = t.schema[ti][1]
    if target_kind not in ("integer", "real"):
        raise KernelError(f"{agg} target {target!r} must be numeric, is {target_kind}")

    values: dict[object, list] = defaultdict(list)
    for key, value in zip(keys, t.columns[ti]):
        values[key].append(value)

    if agg == "sum":
        total = sum if target_kind == "integer" else math.fsum
        schema = [(group, group_kind), (f"sum_{target}", target_kind)]
        return Table(schema, [values, map(total, values.values())])

    schema = [(group, group_kind), (f"avg_{target}", "real")]
    return Table(schema, [values, [math.fsum(v) / len(v) for v in values.values()]])


def count_records(payload: Payload) -> KeyValueSet:
    """Record count of any payload: lines, rows, matrix rows, leading tensor
    dimension, edges, or entries."""
    if isinstance(payload, Matrix):
        n = payload.rows
    elif isinstance(payload, Tensor):
        n = payload.shape[0]
    elif isinstance(payload, Graph):
        n = len(payload.edges)
    else:  # a TextCorpus, Table or KeyValueSet
        n = len(payload)
    return KeyValueSet({"count": str(n)})


def _fibers(x: Tensor, axis: int):
    """Yield flat-index lists of every 1-D fiber along `axis` (row-major);
    raises KernelError before the first if `x` has no such axis."""
    if not 0 <= axis < x.rank:
        raise KernelError(f"axis {axis} out of range for rank-{x.rank} tensor")
    shape, strides = x.shape, x.strides()
    other = [i for i in range(len(shape)) if i != axis]
    base_indices = [0]
    for ax in other:
        base_indices = [b + k * strides[ax] for b in base_indices for k in range(shape[ax])]
    step = strides[axis]
    n = shape[axis]
    for base in base_indices:
        yield [base + k * step for k in range(n)]


def batch_norm(x: Tensor, axis: int, epsilon: float) -> Tensor:
    """Standardize every 1-D fiber along `axis` to mean 0, variance 1
    (population variance, epsilon-guarded)."""
    out = list(x.data)
    for fiber in _fibers(x, axis):
        n = len(fiber)
        mean = math.fsum(x.data[i] for i in fiber) / n
        var = math.fsum((x.data[i] - mean) ** 2 for i in fiber) / n
        scale = 1.0 / math.sqrt(var + epsilon)
        for i in fiber:
            out[i] = (x.data[i] - mean) * scale
    return Tensor(x.shape, out)


def cosine_norm(x: Tensor, axis: int) -> Tensor:
    """Scale every 1-D fiber along `axis` to unit L2 norm."""
    out = list(x.data)
    for fiber in _fibers(x, axis):
        norm = math.sqrt(math.fsum(x.data[i] ** 2 for i in fiber))
        if norm == 0.0:
            raise KernelError("cosine_norm hit a zero-norm slice")
        for i in fiber:
            out[i] = x.data[i] / norm
    return Tensor(x.shape, out)
