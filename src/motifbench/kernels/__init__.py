"""Motif kernel registry.

Eight families of units of computation: matrix, sampling, transform, graph,
logic, set, sort, statistic. Every kernel registers under ``family.name`` with
its arity, accepted payload kinds per operand, result kind, and parameter
schema; the workload composer and the CLI both drive kernels purely through
this table.

Kernels are pure functions of (operands, params): rerunning one on the same
inputs yields a checksum-identical payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..datasets import (
    ALL_KINDS,
    KIND_GRAPH,
    KIND_KV,
    KIND_MATRIX,
    KIND_TABLE,
    KIND_TENSOR,
    KIND_TEXT,
    Matrix,
    Payload,
    Table,
)
from ..errors import KernelError
from ..params import SEED, ParamSpec, coerce
from . import graphops, logic, matrixops, sampling, sets, sorting, statistic, transform

FAMILIES = ("matrix", "sampling", "transform", "graph", "logic", "set", "sort", "statistic")

SAME_AS_INPUT = "same"


@dataclass(frozen=True)
class KernelSpec:
    family: str
    name: str
    arity: int
    input_kinds: tuple[frozenset, ...]
    output_kind: str  # concrete kind, or SAME_AS_INPUT
    fn: Callable[[list, dict], Payload]
    params: dict[str, ParamSpec] = field(default_factory=dict)
    check: Optional[Callable[[dict], None]] = None  # checks the schema cannot state

    @property
    def motif(self) -> str:
        return f"{self.family}.{self.name}"

    def coerce_params(self, raw: dict) -> dict:
        """Validate against the schema and fill defaults; raises KernelError."""
        out = coerce(self.params, raw, self.motif, KernelError)
        if self.check is not None:
            self.check(out)
        return out


def _open_range(motif, params, key, lo, hi=None):
    """Open-interval check for bounds a ParamSpec's closed range cannot state."""
    v = params[key]
    if v <= lo or (hi is not None and v >= hi):
        raise KernelError(f"{motif}: parameter {key!r}={v} out of range")


REGISTRY: dict[str, KernelSpec] = {}


def _register(spec: KernelSpec):
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family}")
    REGISTRY[spec.motif] = spec


def get_kernel(motif: str) -> KernelSpec:
    try:
        return REGISTRY[motif]
    except KeyError:
        raise KernelError(f"unknown motif {motif!r}") from None


def kernels_by_family() -> dict[str, list[KernelSpec]]:
    out: dict[str, list[KernelSpec]] = {fam: [] for fam in FAMILIES}
    for spec in REGISTRY.values():
        out[spec.family].append(spec)
    for fam in out:
        out[fam].sort(key=lambda s: s.name)
    return out


# ---------------------------------------------------------------------------
# adapters and result packaging

_ANY = frozenset(ALL_KINDS)
_TXT = frozenset({KIND_TEXT})
_TBL = frozenset({KIND_TABLE})
_MAT = frozenset({KIND_MATRIX})
_TEN = frozenset({KIND_TENSOR})
_GRA = frozenset({KIND_GRAPH})
_KVS = frozenset({KIND_KV})


def _components_table(ops, p):
    labels = graphops.connected_components(ops[0])
    schema = [("vertex", "integer"), ("component", "integer")]
    return Table(schema, list(enumerate(labels)))


def _pagerank_matrix(ops, p):
    scores = graphops.pagerank(ops[0], p["damping"], p["max_iters"], p["tol"])
    return Matrix(len(scores), 1, scores)


def _project(ops, p):
    columns = [c.strip() for c in p["columns"].split(",") if c.strip()]
    return sets.project(ops[0], columns)


_POOL_PARAMS = {
    "window": ParamSpec("int", required=True, lo=1),
    "stride": ParamSpec("int", default=1, lo=1),
}


def _check_aggregate(p):
    if p["agg"] in ("sum", "avg") and not p["target"]:
        raise KernelError(f"statistic.aggregate: {p['agg']} needs target=<column>")


_KERNELS = [
    # sort
    KernelSpec(
        "sort", "sort", 1, (frozenset({KIND_TEXT, KIND_TABLE, KIND_MATRIX}),), SAME_AS_INPUT,
        lambda ops, p: sorting.sort_records(ops[0], key=p["key"]),
        {"key": ParamSpec("int", default=0)},
    ),
    # set
    KernelSpec(
        "set", "grep", 1, (_TXT,), KIND_TEXT,
        lambda ops, p: sets.grep(ops[0], p["pattern"]),
        {"pattern": ParamSpec("str", required=True)},
    ),
    KernelSpec("set", "union", 2, (_KVS, _KVS), KIND_KV,
               lambda ops, p: sets.set_op(ops[0], ops[1], "union")),
    KernelSpec("set", "intersect", 2, (_KVS, _KVS), KIND_KV,
               lambda ops, p: sets.set_op(ops[0], ops[1], "intersect")),
    KernelSpec("set", "difference", 2, (_KVS, _KVS), KIND_KV,
               lambda ops, p: sets.set_op(ops[0], ops[1], "difference")),
    KernelSpec(
        "set", "project", 1, (_TBL,), KIND_TABLE, _project,
        {"columns": ParamSpec("str", required=True)},
    ),
    KernelSpec(
        "set", "filter", 1, (_TBL,), KIND_TABLE,
        lambda ops, p: sets.filter_rows(ops[0], p["column"], p["cmp"], p["value"]),
        {
            "column": ParamSpec("str", required=True),
            "cmp": ParamSpec("str", required=True, choices=("lt", "le", "gt", "ge", "eq", "ne")),
            "value": ParamSpec("str", required=True),
        },
    ),
    KernelSpec("set", "table_union", 2, (_TBL, _TBL), KIND_TABLE,
               lambda ops, p: sets.table_union(ops[0], ops[1])),
    # statistic
    KernelSpec("statistic", "wordcount", 1, (_TXT,), KIND_KV,
               lambda ops, p: statistic.wordcount(ops[0])),
    KernelSpec(
        "statistic", "aggregate", 1, (_TBL,), KIND_TABLE,
        lambda ops, p: statistic.aggregate(ops[0], p["group"], p["agg"], p["target"]),
        {
            "group": ParamSpec("str", required=True),
            "agg": ParamSpec("str", required=True, choices=("count", "sum", "avg")),
            "target": ParamSpec("str", default=None),
        },
        check=_check_aggregate,
    ),
    KernelSpec(
        "statistic", "batch_norm", 1, (_TEN,), KIND_TENSOR,
        lambda ops, p: statistic.batch_norm(ops[0], p["axis"], p["epsilon"]),
        {"axis": ParamSpec("int", default=0, lo=0), "epsilon": ParamSpec("float", default=1e-5)},
        check=lambda p: _open_range("statistic.batch_norm", p, "epsilon", 0.0),
    ),
    KernelSpec(
        "statistic", "cosine_norm", 1, (_TEN,), KIND_TENSOR,
        lambda ops, p: statistic.cosine_norm(ops[0], p["axis"]),
        {"axis": ParamSpec("int", default=0, lo=0)},
    ),
    KernelSpec("statistic", "count", 1, (_ANY,), KIND_KV,
               lambda ops, p: statistic.count_records(ops[0])),
    # logic
    KernelSpec("logic", "md5", 1, (_TXT,), KIND_TEXT,
               lambda ops, p: logic.md5_corpus(ops[0])),
    KernelSpec("logic", "relu", 1, (_TEN,), KIND_TENSOR,
               lambda ops, p: logic.elementwise_activation(ops[0], "relu")),
    # matrix
    KernelSpec("matrix", "sigmoid", 1, (_TEN,), KIND_TENSOR,
               lambda ops, p: logic.elementwise_activation(ops[0], "sigmoid")),
    KernelSpec("matrix", "tanh", 1, (_TEN,), KIND_TENSOR,
               lambda ops, p: logic.elementwise_activation(ops[0], "tanh")),
    KernelSpec("matrix", "multiply", 2, (_MAT, _MAT), KIND_MATRIX,
               lambda ops, p: matrixops.matmul(ops[0], ops[1])),
    KernelSpec("matrix", "add", 2, (_MAT, _MAT), KIND_MATRIX,
               lambda ops, p: matrixops.mat_elementwise(ops[0], ops[1], "add")),
    KernelSpec("matrix", "subtract", 2, (_MAT, _MAT), KIND_MATRIX,
               lambda ops, p: matrixops.mat_elementwise(ops[0], ops[1], "subtract")),
    KernelSpec("matrix", "hadamard", 2, (_MAT, _MAT), KIND_MATRIX,
               lambda ops, p: matrixops.mat_elementwise(ops[0], ops[1], "hadamard")),
    KernelSpec("matrix", "fully_connected", 3, (_TEN, _MAT, _TEN), KIND_TENSOR,
               lambda ops, p: matrixops.fully_connected(ops[0], ops[1], ops[2])),
    # sampling
    KernelSpec(
        "sampling", "random_sample", 1, (frozenset({KIND_TEXT, KIND_TABLE}),), SAME_AS_INPUT,
        lambda ops, p: sampling.random_sample(ops[0], p["fraction"], p["seed"]),
        {"fraction": ParamSpec("float", required=True, lo=0.0, hi=1.0), "seed": SEED},
    ),
    KernelSpec(
        "sampling", "max_pool", 1, (_TEN,), KIND_TENSOR,
        lambda ops, p: sampling.pool(ops[0], p["window"], p["stride"], "max"),
        _POOL_PARAMS,
    ),
    KernelSpec(
        "sampling", "avg_pool", 1, (_TEN,), KIND_TENSOR,
        lambda ops, p: sampling.pool(ops[0], p["window"], p["stride"], "avg"),
        _POOL_PARAMS,
    ),
    KernelSpec(
        "sampling", "downsample", 1, (_MAT,), KIND_MATRIX,
        lambda ops, p: sampling.downsample(ops[0], p["factor"]),
        {"factor": ParamSpec("int", required=True, lo=1)},
    ),
    KernelSpec(
        "sampling", "dropout", 1, (_TEN,), KIND_TENSOR,
        lambda ops, p: sampling.dropout(ops[0], p["p"], p["seed"]),
        {"p": ParamSpec("float", required=True, lo=0.0, hi=1.0), "seed": SEED},
    ),
    # transform
    KernelSpec("transform", "fft", 1, (_MAT,), KIND_MATRIX,
               lambda ops, p: transform.matrix_fft(ops[0])),
    KernelSpec("transform", "ifft", 1, (_MAT,), KIND_MATRIX,
               lambda ops, p: transform.matrix_ifft(ops[0])),
    KernelSpec("transform", "fft2d", 1, (_MAT,), KIND_MATRIX,
               lambda ops, p: transform.matrix_fft2d(ops[0])),
    KernelSpec("transform", "ifft2d", 1, (_MAT,), KIND_MATRIX,
               lambda ops, p: transform.matrix_ifft2d(ops[0])),
    KernelSpec(
        "transform", "convolution", 2, (_TEN, _TEN), KIND_TENSOR,
        lambda ops, p: transform.convolution(ops[0], ops[1], p["stride"], p["padding"]),
        {
            "stride": ParamSpec("int", default=1, lo=1),
            "padding": ParamSpec("str", default="valid", choices=("valid", "same")),
        },
    ),
    # graph
    KernelSpec("graph", "connected_components", 1, (_GRA,), KIND_TABLE, _components_table),
    KernelSpec(
        "graph", "pagerank", 1, (_GRA,), KIND_MATRIX, _pagerank_matrix,
        {
            "damping": ParamSpec("float", default=0.85),
            "max_iters": ParamSpec("int", default=100, lo=1),
            "tol": ParamSpec("float", default=1e-10, lo=0.0),
        },
        check=lambda p: _open_range("graph.pagerank", p, "damping", 0.0, 1.0),
    ),
]

for _spec in _KERNELS:
    _register(_spec)
del _spec
# set.select is the relational name for set.filter: one kernel, one schema.
_register(replace(REGISTRY["set.filter"], name="select"))
