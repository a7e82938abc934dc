"""Typed dataset payloads flowing through motif DAGs.

Six payload kinds cover the toolkit: text corpora, relational tables, dense
matrices, dense tensors, graphs, and key-value sets. Every constructor
validates its invariants and raises InvariantError instead of silently
normalizing; payloads are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, filterfalse
from typing import Union

from .errors import InvariantError

TABLE_KINDS = ("integer", "real", "string")

# Payload kind tags, used by the kernel registry and workload type-checker.
KIND_TEXT = "text"
KIND_TABLE = "table"
KIND_MATRIX = "matrix"
KIND_TENSOR = "tensor"
KIND_GRAPH = "graph"
KIND_KV = "kv"
ALL_KINDS = (KIND_TEXT, KIND_TABLE, KIND_MATRIX, KIND_TENSOR, KIND_GRAPH, KIND_KV)


def _require(cond: bool, message: str):
    if not cond:
        raise InvariantError(message)


def _real_values(data, what: str) -> tuple[float, ...]:
    """`data` as a tuple of finite floats: an int becomes a float, any other
    type (bool, str, ...) is rejected. Only naming a bad value scans in Python."""
    values = tuple(data)
    types = set(map(type, values))
    if types - {float}:
        if types - {float, int}:
            bad = next(v for v in values if type(v) not in (float, int))
            raise InvariantError(f"{what} must be numbers, got {bad!r}")
        values = tuple(map(float, values))
    if not all(map(math.isfinite, values)):
        bad = next(filterfalse(math.isfinite, values))
        raise InvariantError(f"{what} must be finite, got {bad!r}")
    return values


@dataclass(frozen=True)
class TextCorpus:
    """Ordered list of text lines. Lines must not contain line terminators,
    which guarantees the one-document-per-line file format round-trips."""

    documents: tuple[str, ...]

    def __init__(self, documents):
        docs = tuple(documents)
        for i, line in enumerate(docs):
            _require(isinstance(line, str), f"document {i} is not a string")
            if "\n" in line or "\r" in line:
                raise InvariantError(f"document {i} contains a line terminator")
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise InvariantError(f"document {i} is not valid UTF-8: {exc}") from None
        object.__setattr__(self, "documents", docs)

    def __len__(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class Table:
    """Relational table with a (name, kind) schema; kinds: integer, real, string."""

    schema: tuple[tuple[str, str], ...]
    rows: tuple[tuple, ...]

    def __init__(self, schema, rows):
        norm_schema = tuple((n, k) for n, k in schema)
        seen = set()
        for name, kind in norm_schema:
            _require(isinstance(name, str), f"column name {name!r} is not a string")
            _require(kind in TABLE_KINDS, f"unknown column kind {kind!r} for column {name!r}")
            _require(name not in seen, f"duplicate column name {name!r}")
            # Names appear unquoted in the table header line.
            for bad in (":", ",", "\n", "\r"):
                _require(bad not in name, f"column name {name!r} contains {bad!r}")
            _require(name != "", "empty column name")
            seen.add(name)
        norm_rows = []
        for r, row in enumerate(rows):
            row = tuple(row)
            _require(
                len(row) == len(norm_schema),
                f"row {r} has arity {len(row)}, schema has {len(norm_schema)}",
            )
            out = []
            for (name, kind), value in zip(norm_schema, row):
                if kind == "integer":
                    # the canonical encoding stores signed 64-bit integers
                    _require(
                        isinstance(value, int) and not isinstance(value, bool)
                        and -2**63 <= value < 2**63,
                        f"row {r} column {name!r}: expected a 64-bit integer, got {value!r}",
                    )
                    out.append(value)
                elif kind == "real":
                    _require(
                        isinstance(value, (int, float)) and not isinstance(value, bool),
                        f"row {r} column {name!r}: expected real, got {value!r}",
                    )
                    fv = float(value)
                    _require(math.isfinite(fv), f"row {r} column {name!r}: non-finite value")
                    out.append(fv)
                else:
                    _require(
                        isinstance(value, str),
                        f"row {r} column {name!r}: expected string, got {value!r}",
                    )
                    out.append(value)
            norm_rows.append(tuple(out))
        object.__setattr__(self, "schema", norm_schema)
        object.__setattr__(self, "rows", tuple(norm_rows))

    def column_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.schema):
            if n == name:
                return i
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Matrix:
    """Dense row-major real matrix."""

    rows: int
    cols: int
    data: tuple[float, ...]

    def __init__(self, rows: int, cols: int, data):
        _require(isinstance(rows, int) and rows > 0, f"rows must be a positive count, got {rows!r}")
        _require(isinstance(cols, int) and cols > 0, f"cols must be a positive count, got {cols!r}")
        values = _real_values(data, "matrix values")
        _require(
            len(values) == rows * cols,
            f"data length {len(values)} != rows*cols = {rows * cols}",
        )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", values)

    def at(self, i: int, j: int) -> float:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[float, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]


@dataclass(frozen=True)
class Tensor:
    """Dense row-major real tensor of arbitrary rank."""

    shape: tuple[int, ...]
    data: tuple[float, ...]

    def __init__(self, shape, data):
        dims = tuple(shape)
        _require(
            set(map(type, dims)) == {int} and min(dims) > 0,
            f"tensor shape must be one or more positive integers, got {dims!r}",
        )
        size = math.prod(dims)
        values = _real_values(data, "tensor values")
        _require(len(values) == size, f"data length {len(values)} != product(shape) = {size}")
        object.__setattr__(self, "shape", dims)
        object.__setattr__(self, "data", values)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def strides(self) -> tuple[int, ...]:
        out = [1] * len(self.shape)
        for i in range(len(self.shape) - 2, -1, -1):
            out[i] = out[i + 1] * self.shape[i + 1]
        return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Edge list over vertices 0..vertex_count-1.

    Self-loops and duplicate edges are allowed; kernels define their own
    handling (pagerank weighs parallel edges individually, components ignore
    multiplicity).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    directed: bool

    def __init__(self, vertex_count: int, edges, directed: bool = True):
        # the canonical encoding stores the count as an unsigned 64-bit integer
        _require(
            isinstance(vertex_count, int) and 0 < vertex_count < 2**64,
            f"vertex_count must be a positive count below 2**64, got {vertex_count!r}",
        )
        norm = tuple(map(tuple, edges))
        ends = list(chain.from_iterable(norm))
        if not (set(map(len, norm)) <= {2} and set(map(type, ends)) <= {int}
                and 0 <= min(ends, default=0) and max(ends, default=0) < vertex_count):
            for k, e in enumerate(norm):  # name the first bad edge
                ok = len(e) == 2 and set(map(type, e)) == {int}
                _require(ok and 0 <= min(e) <= max(e) < vertex_count,
                         f"edge {k} endpoint out of range or not an integer: {e!r} "
                         f"with vertex_count {vertex_count}")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", norm)
        object.__setattr__(self, "directed", bool(directed))


@dataclass(frozen=True)
class KeyValueSet:
    """String-keyed, string-valued set; keys unique by construction."""

    entries: dict[str, str]

    def __init__(self, entries):
        items = list(entries.items()) if isinstance(entries, dict) else list(entries)
        norm = {}
        for key, value in items:
            _require(isinstance(key, str), f"key {key!r} is not a string")
            _require(isinstance(value, str), f"value for key {key!r} is not a string")
            _require(key not in norm, f"duplicate key {key!r}")
            # Keys appear unquoted before the tab separator in the kv format;
            # values follow it, so only line terminators break them.
            for bad in ("\t", "\n", "\r"):
                _require(bad not in key, f"key {key!r} contains {bad!r}")
            for bad in ("\n", "\r"):
                _require(bad not in value, f"value for {key!r} contains {bad!r}")
            norm[key] = value
        object.__setattr__(self, "entries", norm)

    def __len__(self) -> int:
        return len(self.entries)


Payload = Union[TextCorpus, Table, Matrix, Tensor, Graph, KeyValueSet]

_KIND_BY_TYPE = {
    TextCorpus: KIND_TEXT,
    Table: KIND_TABLE,
    Matrix: KIND_MATRIX,
    Tensor: KIND_TENSOR,
    Graph: KIND_GRAPH,
    KeyValueSet: KIND_KV,
}


def kind_of(payload: Payload) -> str:
    try:
        return _KIND_BY_TYPE[type(payload)]
    except KeyError:
        raise InvariantError(f"not a dataset payload: {type(payload).__name__}") from None


@dataclass(frozen=True)
class Dataset:
    """A validated payload, as loaded from a file or generated."""

    payload: Payload

    def __post_init__(self):
        kind_of(self.payload)  # raises on foreign objects

    @property
    def kind(self) -> str:
        return kind_of(self.payload)
