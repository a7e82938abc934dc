"""Motif kernel registry.

Eight families of units of computation: matrix, sampling, transform, graph,
logic, set, sort, statistic. Every kernel registers under ``family.name`` with
the payload kinds each operand accepts (one entry per operand, so their count
is its arity), result kind, parameter schema and the kernel function itself;
the workload composer and the CLI both drive kernels purely through this table.

Kernels are pure functions, called as fn(*operands, **params) where params is
the dict KernelSpec.coerce_params returns: every schema key, defaults filled
in. So a kernel's argument names are its schema's names, and a variant that a
registry entry fixes is bound with functools.partial. Rerunning a kernel on
the same inputs yields a checksum-identical payload. A kernel trusts its
params, which coerce_params checks against the schema, and checks only operands.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

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
from ..params import ABOVE_ZERO, BELOW_ONE, SEED, ParamSpec, coerce
from . import graphops, logic, matrixops, sampling, sets, sorting, statistic, transform

FAMILIES = ("matrix", "sampling", "transform", "graph", "logic", "set", "sort", "statistic")

SAME_AS_INPUT = "same"


class KernelSpec(NamedTuple):
    family: str
    name: str
    input_kinds: tuple[frozenset, ...]
    output_kind: str  # concrete kind, or SAME_AS_INPUT
    fn: Callable[..., Payload]  # called as fn(*operands, **coerced params)
    params: dict[str, ParamSpec] = MappingProxyType({})
    check: Optional[Callable[[dict], None]] = None  # checks the schema cannot state

    @property
    def motif(self) -> str:
        return f"{self.family}.{self.name}"

    @property
    def arity(self) -> int:
        return len(self.input_kinds)

    def coerce_params(self, raw: dict) -> dict:
        """Validate against the schema and fill defaults; raises KernelError."""
        out = coerce(self.params, raw, self.motif, KernelError)
        if self.check is not None:
            self.check(out)
        return out


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
# result packaging

_ANY = frozenset(ALL_KINDS)
_TXT = frozenset({KIND_TEXT})
_TBL = frozenset({KIND_TABLE})
_MAT = frozenset({KIND_MATRIX})
_TEN = frozenset({KIND_TENSOR})
_GRA = frozenset({KIND_GRAPH})
_KVS = frozenset({KIND_KV})


def _components_table(g):
    labels = graphops.connected_components(g)
    schema = [("vertex", "integer"), ("component", "integer")]
    return Table(schema, [range(len(labels)), labels])


def _pagerank_matrix(g, damping, max_iters, tol):
    scores = graphops.pagerank(g, damping, max_iters, tol)
    return Matrix(len(scores), 1, scores)


def _column_names(columns: str) -> list[str]:
    return [c.strip() for c in columns.split(",") if c.strip()]


def _project(t, columns):
    return sets.project(t, _column_names(columns))


_POOL_PARAMS = {
    "window": ParamSpec("int", required=True, lo=1),
    "stride": ParamSpec("int", default=1, lo=1),
}


def _check_grep(p):
    if not p["pattern"]:
        raise KernelError("set.grep: parameter 'pattern' must be non-empty")


def _check_project(p):
    if not _column_names(p["columns"]):
        raise KernelError("set.project: parameter 'columns' must name at least one column")


def _check_aggregate(p):
    if p["agg"] in ("sum", "avg") and not p["target"]:
        raise KernelError(f"statistic.aggregate: {p['agg']} needs target=<column>")


_KERNELS = [
    # sort
    KernelSpec(
        "sort", "sort", (frozenset({KIND_TEXT, KIND_TABLE, KIND_MATRIX}),), SAME_AS_INPUT,
        sorting.sort_records,
        {"key": ParamSpec("int", default=0)},
    ),
    # set
    KernelSpec(
        "set", "grep", (_TXT,), KIND_TEXT, sets.grep,
        {"pattern": ParamSpec("str", required=True)},
        check=_check_grep,
    ),
    KernelSpec("set", "union", (_KVS, _KVS), KIND_KV,
               partial(sets.set_op, op="union")),
    KernelSpec("set", "intersect", (_KVS, _KVS), KIND_KV,
               partial(sets.set_op, op="intersect")),
    KernelSpec("set", "difference", (_KVS, _KVS), KIND_KV,
               partial(sets.set_op, op="difference")),
    KernelSpec(
        "set", "project", (_TBL,), KIND_TABLE, _project,
        {"columns": ParamSpec("str", required=True)},
        check=_check_project,
    ),
    KernelSpec(
        "set", "filter", (_TBL,), KIND_TABLE, sets.filter_rows,
        {
            "column": ParamSpec("str", required=True),
            "cmp": ParamSpec("str", required=True, choices=("lt", "le", "gt", "ge", "eq", "ne")),
            "value": ParamSpec("str", required=True),
        },
    ),
    KernelSpec("set", "table_union", (_TBL, _TBL), KIND_TABLE, sets.table_union),
    # statistic
    KernelSpec("statistic", "wordcount", (_TXT,), KIND_KV, statistic.wordcount),
    KernelSpec(
        "statistic", "aggregate", (_TBL,), KIND_TABLE, statistic.aggregate,
        {
            "group": ParamSpec("str", required=True),
            "agg": ParamSpec("str", required=True, choices=("count", "sum", "avg")),
            "target": ParamSpec("str", default=None),
        },
        check=_check_aggregate,
    ),
    KernelSpec(
        "statistic", "batch_norm", (_TEN,), KIND_TENSOR, statistic.batch_norm,
        {
            "axis": ParamSpec("int", default=0, lo=0),
            "epsilon": ParamSpec("float", default=1e-5, lo=ABOVE_ZERO),
        },
    ),
    KernelSpec(
        "statistic", "cosine_norm", (_TEN,), KIND_TENSOR, statistic.cosine_norm,
        {"axis": ParamSpec("int", default=0, lo=0)},
    ),
    KernelSpec("statistic", "count", (_ANY,), KIND_KV, statistic.count_records),
    # logic
    KernelSpec("logic", "md5", (_TXT,), KIND_TEXT, logic.md5_corpus),
    KernelSpec("logic", "relu", (_TEN,), KIND_TENSOR,
               partial(logic.elementwise_activation, fn="relu")),
    # matrix
    KernelSpec("matrix", "sigmoid", (_TEN,), KIND_TENSOR,
               partial(logic.elementwise_activation, fn="sigmoid")),
    KernelSpec("matrix", "tanh", (_TEN,), KIND_TENSOR,
               partial(logic.elementwise_activation, fn="tanh")),
    KernelSpec("matrix", "multiply", (_MAT, _MAT), KIND_MATRIX, matrixops.matmul),
    KernelSpec("matrix", "add", (_MAT, _MAT), KIND_MATRIX,
               partial(matrixops.mat_elementwise, op="add")),
    KernelSpec("matrix", "subtract", (_MAT, _MAT), KIND_MATRIX,
               partial(matrixops.mat_elementwise, op="subtract")),
    KernelSpec("matrix", "hadamard", (_MAT, _MAT), KIND_MATRIX,
               partial(matrixops.mat_elementwise, op="hadamard")),
    KernelSpec("matrix", "fully_connected", (_TEN, _MAT, _TEN), KIND_TENSOR,
               matrixops.fully_connected),
    # sampling
    KernelSpec(
        "sampling", "random_sample", (frozenset({KIND_TEXT, KIND_TABLE}),), SAME_AS_INPUT,
        sampling.random_sample,
        {"fraction": ParamSpec("float", required=True, lo=0.0, hi=1.0), "seed": SEED},
    ),
    KernelSpec("sampling", "max_pool", (_TEN,), KIND_TENSOR,
               partial(sampling.pool, mode="max"), _POOL_PARAMS),
    KernelSpec("sampling", "avg_pool", (_TEN,), KIND_TENSOR,
               partial(sampling.pool, mode="avg"), _POOL_PARAMS),
    KernelSpec(
        "sampling", "downsample", (_MAT,), KIND_MATRIX, sampling.downsample,
        {"factor": ParamSpec("int", required=True, lo=1)},
    ),
    KernelSpec(
        "sampling", "dropout", (_TEN,), KIND_TENSOR, sampling.dropout,
        {"p": ParamSpec("float", required=True, lo=0.0, hi=1.0), "seed": SEED},
    ),
    # transform
    KernelSpec("transform", "fft", (_MAT,), KIND_MATRIX,
               partial(transform.fft, two_d=False, inverse=False)),
    KernelSpec("transform", "ifft", (_MAT,), KIND_MATRIX,
               partial(transform.fft, two_d=False, inverse=True)),
    KernelSpec("transform", "fft2d", (_MAT,), KIND_MATRIX,
               partial(transform.fft, two_d=True, inverse=False)),
    KernelSpec("transform", "ifft2d", (_MAT,), KIND_MATRIX,
               partial(transform.fft, two_d=True, inverse=True)),
    KernelSpec(
        "transform", "convolution", (_TEN, _TEN), KIND_TENSOR, transform.convolution,
        {
            "stride": ParamSpec("int", default=1, lo=1),
            "padding": ParamSpec("str", default="valid", choices=("valid", "same")),
        },
    ),
    # graph
    KernelSpec("graph", "connected_components", (_GRA,), KIND_TABLE, _components_table),
    KernelSpec(
        "graph", "pagerank", (_GRA,), KIND_MATRIX, _pagerank_matrix,
        {
            "damping": ParamSpec("float", default=0.85, lo=ABOVE_ZERO, hi=BELOW_ONE),
            "max_iters": ParamSpec("int", default=100, lo=1),
            "tol": ParamSpec("float", default=1e-10, lo=0.0),
        },
    ),
]

for _spec in _KERNELS:
    _register(_spec)
del _spec
# set.select is the relational name for set.filter: one kernel, one schema.
_register(REGISTRY["set.filter"]._replace(name="select"))
