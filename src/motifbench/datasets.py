"""Typed dataset payloads flowing through motif DAGs.

Six payload kinds cover the toolkit: text corpora, relational tables, dense
matrices, dense tensors, graphs, and key-value sets. Every constructor
validates its invariants and raises InvariantError instead of silently
normalizing; payloads are immutable after construction and safe to share
across threads. A table is built from its columns and stored as them, and
its rows are a view derived from them.

Constructors check whole columns with C-level passes (the set of types,
min/max, math.isfinite over all values, one join scanned for reserved
characters and encoded as UTF-8); only after a check fails does a Python
scan name the bad value, and the error's `index` gives its position.
TABLE_KINDS holds each table column kind's column check and text parser.
Record is the base of motifbench's validating record classes; MetricVector,
analyze's output and cluster's input, is here so cluster needs no topdown.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, NamedTuple, Union

from .errors import EventError, InvariantError


class Record:
    """Equality, hash and repr over the fields named in `_fields`, in order.
    Assignment and deletion raise AttributeError: a constructor stores its
    fields through `_set`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MetricVector(Record):
    __slots__ = _fields = ("label", "names", "values")

    def __init__(self, label: str, names: tuple[str, ...], values: tuple[float, ...]):
        if len(names) != len(values):
            raise EventError("metric vector names/values length mismatch")
        for name, value in zip(names, values):
            if not math.isfinite(value):
                raise EventError(f"metric {name!r} has non-finite value {value!r}")
        self._set(label=label, names=names, values=values)


# Payload kind tags, used by the kernel registry and workload type-checker.
KIND_TEXT = "text"
KIND_TABLE = "table"
KIND_MATRIX = "matrix"
KIND_TENSOR = "tensor"
KIND_GRAPH = "graph"
KIND_KV = "kv"
ALL_KINDS = (KIND_TEXT, KIND_TABLE, KIND_MATRIX, KIND_TENSOR, KIND_GRAPH, KIND_KV)


def _first_bad(values, ok) -> int:
    """Index of the first of `values` that fails `ok`."""
    return next(i for i, v in enumerate(values) if not ok(v))


def _first_repeat(values):
    seen = set()
    return next(v for v in values if v in seen or seen.add(v))


# The least int that float() rounds to infinity (binary64 rounds half to even).
_FLOAT_LIMIT = 2**1024 - 2**970


def _integers(col: tuple, subject: Callable[[int], str]) -> tuple:
    """`col` if every value is an int in the signed 64-bit range of the
    canonical encoding; `subject(i)` names position i in an error."""
    if set(map(type, col)) <= {int} and -2**63 <= min(col, default=0) \
            and max(col, default=0) < 2**63:
        return col
    i = _first_bad(col, lambda v: type(v) is int and -2**63 <= v < 2**63)
    raise InvariantError(f"{subject(i)}: expected a 64-bit integer, got {col[i]!r}", index=i)


def _reals(col: tuple, subject: Callable[[int], str]) -> tuple:
    """`col` as a tuple of finite floats: an int becomes a float, any other
    type (bool, str, ...) is rejected."""
    types = set(map(type, col))
    if types - {float, int}:
        i = _first_bad(col, lambda v: type(v) in (float, int))
        raise InvariantError(f"{subject(i)} must be numbers, got {col[i]!r}", index=i)
    try:
        values = tuple(map(float, col)) if int in types else col
        ok = all(map(math.isfinite, values))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        i = _first_bad(col, lambda v: abs(v) < _FLOAT_LIMIT)
        raise InvariantError(f"{subject(i)} must be finite, got {col[i]!r}", index=i)
    return values


def _strings(col: tuple, subject: Callable[[int], str], reserved: str = "") -> tuple:
    """`col` if every value is a str holding none of the `reserved` characters
    that encodes as UTF-8 (no lone surrogates)."""
    if set(map(type, col)) - {str}:
        i = _first_bad(col, lambda v: type(v) is str)
        raise InvariantError(f"{subject(i)} is not a string, got {col[i]!r}", index=i)
    text = "".join(col)
    for ch in reserved:
        if ch in text:
            i = _first_bad(col, lambda v: ch not in v)
            raise InvariantError(f"{subject(i)} contains {ch!r}", index=i)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        for i, value in enumerate(col):  # name the value that cannot be encoded
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise InvariantError(f"{subject(i)} is not valid UTF-8: {exc}", index=i) from None
    return col


class ColumnKind(NamedTuple):
    check: Callable[[tuple, Callable[[int], str]], tuple]  # a column -> the column stored
    parse: Callable[[str], object]  # a text cell -> its value; ValueError if it has none


TABLE_KINDS = {
    "integer": ColumnKind(_integers, int),
    "real": ColumnKind(_reals, float),
    "string": ColumnKind(_strings, str),
}


class TextCorpus(Record):
    """Ordered list of text lines. Lines must not contain line terminators,
    which guarantees the one-document-per-line file format round-trips."""

    __slots__ = _fields = ("documents",)

    def __init__(self, documents):
        self._set(documents=_strings(tuple(documents), lambda i: f"document {i}", "\n\r"))

    def __len__(self) -> int:
        return len(self.documents)


class Table(Record):
    """Relational table with a non-empty (name, kind) schema; kinds: integer,
    real, string. Built from `columns`, one iterable of cells per schema
    entry, all of one length; stored as the checked columns, one tuple each
    in schema order. `rows` is a view derived from them."""

    __slots__ = _fields = ("schema", "columns")

    def __init__(self, schema, columns):
        norm_schema = tuple((n, k) for n, k in schema)
        if not norm_schema:
            raise InvariantError("empty table schema")
        names, kinds = zip(*norm_schema)
        # Names appear unquoted in the table header line.
        _strings(names, lambda i: f"column name {names[i]!r}", ":,\n\r")
        if "" in names:
            raise InvariantError("empty column name")
        if len(set(names)) < len(names):
            raise InvariantError(f"duplicate column name {_first_repeat(names)!r}")
        if not (set(map(type, kinds)) <= {str} and set(kinds) <= TABLE_KINDS.keys()):
            i = _first_bad(kinds, lambda k: type(k) is str and k in TABLE_KINDS)
            raise InvariantError(f"unknown column kind {kinds[i]!r} for column {names[i]!r}")
        cols = tuple(map(tuple, columns))
        if len(cols) != len(names) or len(set(map(len, cols))) > 1:
            raise InvariantError(f"schema has {len(names)} columns, got {len(cols)} "
                                 f"of lengths {tuple(map(len, cols))}")
        stored = tuple(TABLE_KINDS[kind].check(col, lambda r: f"row {r} column {name!r}")
                       for name, kind, col in zip(names, kinds, cols))
        self._set(schema=norm_schema, columns=stored)

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*self.columns))

    def __len__(self) -> int:
        return len(self.columns[0])


class Matrix(Record):
    """Dense row-major real matrix."""

    __slots__ = _fields = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        for what, count in (("rows", rows), ("cols", cols)):
            if not (type(count) is int and count > 0):
                raise InvariantError(f"{what} must be a positive count, got {count!r}")
        values = _reals(tuple(data), lambda i: "matrix values")
        if len(values) != rows * cols:
            raise InvariantError(f"data length {len(values)} != rows*cols = {rows * cols}")
        self._set(rows=rows, cols=cols, data=values)

    def row(self, i: int) -> tuple[float, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]


class Tensor(Record):
    """Dense row-major real tensor of arbitrary rank."""

    __slots__ = _fields = ("shape", "data")

    def __init__(self, shape, data):
        dims = tuple(shape)
        if not (set(map(type, dims)) == {int} and min(dims) > 0):
            raise InvariantError(
                f"tensor shape must be one or more positive integers, got {dims!r}")
        size = math.prod(dims)
        values = _reals(tuple(data), lambda i: "tensor values")
        if len(values) != size:
            raise InvariantError(f"data length {len(values)} != product(shape) = {size}")
        self._set(shape=dims, data=values)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def strides(self) -> tuple[int, ...]:
        out = [1] * len(self.shape)
        for i in range(len(self.shape) - 2, -1, -1):
            out[i] = out[i + 1] * self.shape[i + 1]
        return tuple(out)


class Graph(Record):
    """Edge list over vertices 0..vertex_count-1.

    Self-loops and duplicate edges are allowed; kernels define their own
    handling (pagerank weighs parallel edges individually, components ignore
    multiplicity).
    """

    __slots__ = _fields = ("vertex_count", "edges", "directed")

    def __init__(self, vertex_count: int, edges, directed: bool = True):
        # the canonical encoding stores the count as an unsigned 64-bit integer
        if not (type(vertex_count) is int and 0 < vertex_count < 2**64):
            raise InvariantError(
                f"vertex_count must be a positive count below 2**64, got {vertex_count!r}")
        norm = tuple(map(tuple, edges))
        ends = list(chain.from_iterable(norm))
        if not (set(map(len, norm)) <= {2} and set(map(type, ends)) <= {int}):
            k = _first_bad(norm, lambda e: len(e) == 2 and set(map(type, e)) == {int})
            raise InvariantError(f"edge {k} endpoint out of range or not an integer: "
                                 f"{norm[k]!r} with vertex_count {vertex_count}", index=k)
        if not (0 <= min(ends, default=0) and max(ends, default=0) < vertex_count):
            k = _first_bad(norm, lambda e: 0 <= min(e) <= max(e) < vertex_count)
            raise InvariantError(
                f"endpoint out of range: {norm[k]} with vertex_count {vertex_count}", index=k)
        self._set(vertex_count=vertex_count, edges=norm, directed=bool(directed))


class KeyValueSet(Record):
    """String-keyed, string-valued set; keys unique by construction."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries):
        pairs = tuple(map(tuple, entries.items() if isinstance(entries, dict) else entries))
        keys, values = tuple(zip(*pairs)) or ((), ())
        # Keys appear unquoted before the tab separator in the kv format;
        # values follow it, so only line terminators break them.
        _strings(keys, lambda i: f"key {keys[i]!r}", "\t\n\r")
        _strings(values, lambda i: f"value for key {keys[i]!r}", "\n\r")
        norm = dict(pairs)  # refuses a pair of any other length
        if len(norm) < len(pairs):
            raise InvariantError(f"duplicate key {_first_repeat(keys)!r}")
        self._set(entries=norm)

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


class Dataset(Record):
    """A validated payload, as loaded from a file or generated."""

    __slots__ = _fields = ("payload",)

    def __init__(self, payload: Payload):
        kind_of(payload)  # raises on foreign objects
        self._set(payload=payload)
