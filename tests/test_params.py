"""Every parameter bound holds in its schema, and every kernel takes its
schema's names.

Kernels and generators trust the values their schema hands them, so a bound
dropped from a schema would let a bad value through to the code. These tests
go through every kernel's schema and every generator's, the RMAT and
distribution parameters included: each schema still states its pinned bounds,
and a value just past each lo or hi, and a string outside each choices, is
rejected by coerce_params or make_genspec.
"""

import inspect
import math

import pytest

from motifbench import generators
from motifbench.errors import InvariantError, KernelError
from motifbench.kernels import REGISTRY
from motifbench.params import ABOVE_ZERO, BELOW_ONE

# Text that satisfies a required parameter with no bound or choices.
_PLAIN = {"shape": "2"}

# Every bound and choice list the schemas state, pinned: the test below reads
# the bounds from the schemas, so only this table notices one dropped.
_COUNT, _SEED, _UNIT = (1, None), (0, 2**64 - 1), (0.0, 1.0)
_CMP = ("lt", "le", "gt", "ge", "eq", "ne")
_DIST = ("uniform", "gaussian")
BOUNDS = {
    "graph.pagerank": {"damping": (ABOVE_ZERO, BELOW_ONE), "max_iters": _COUNT, "tol": (0.0, None)},
    "sampling.avg_pool": {"window": _COUNT, "stride": _COUNT},
    "sampling.downsample": {"factor": _COUNT},
    "sampling.dropout": {"p": _UNIT, "seed": _SEED},
    "sampling.max_pool": {"window": _COUNT, "stride": _COUNT},
    "sampling.random_sample": {"fraction": _UNIT, "seed": _SEED},
    "set.filter": {"cmp": _CMP},
    "set.select": {"cmp": _CMP},
    "statistic.aggregate": {"agg": ("count", "sum", "avg")},
    "statistic.batch_norm": {"axis": (0, None), "epsilon": (ABOVE_ZERO, None)},
    "statistic.cosine_norm": {"axis": (0, None)},
    "transform.convolution": {"stride": _COUNT, "padding": ("valid", "same")},
    "generate.graph": {"vertices": (1, 2**64 - 1), "edges": _COUNT,
                       "model": ("uniform", "rmat"), "seed": _SEED},
    "generate.matrix": {"rows": _COUNT, "cols": _COUNT, "dist": _DIST, "seed": _SEED},
    "generate.table": {"orders": _COUNT, "items": _COUNT, "which": ("order", "item"),
                       "seed": _SEED},
    "generate.tensor": {"dist": _DIST, "seed": _SEED},
    "generate.text": {"bytes": _COUNT, "seed": _SEED},
    "generate.graph/rmat": dict.fromkeys("abcd", _UNIT),
    "generate.matrix/gaussian": {"sigma": (ABOVE_ZERO, None)},
}


def _schemas():
    """(id, schema, check): check(raw params) coerces or raises."""
    for motif, spec in sorted(REGISTRY.items()):
        yield motif, spec.params, spec.coerce_params
    for kind, schema in sorted(generators._SCHEMAS.items()):
        yield f"generate.{kind}", schema, lambda raw, kind=kind: generators.make_genspec(kind, raw)
    yield ("generate.graph/rmat", generators._RMAT_PARAMS,
           lambda raw: generators.make_genspec(
               "graph", {"vertices": "1", "edges": "1", "model": "rmat", **raw}))
    for dist, schema in sorted(generators.DISTRIBUTIONS.items()):
        yield (f"generate.matrix/{dist}", schema,
               lambda raw, dist=dist: generators.make_genspec(
                   "matrix", {"rows": "1", "cols": "1", "dist": dist, **raw}))


def _inside(spec):
    if spec.choices:
        return spec.choices[0]
    if spec.kind == "str":
        return "x"
    return str(spec.lo if spec.lo is not None else 1)


def _past(spec, bound, direction):
    """The text of the nearest value past `bound` in `direction` (+1 or -1)."""
    if spec.kind == "int":
        return str(bound + direction)
    return repr(math.nextafter(bound, direction * math.inf))


def _cases():
    for where, schema, check in _schemas():
        base = {k: _PLAIN.get(k, _inside(s)) for k, s in schema.items() if s.required}
        for key, spec in schema.items():
            if spec.lo is not None:
                yield pytest.param(check, base, key, _past(spec, spec.lo, -1), "out of range",
                                   id=f"{where}:{key}-lo")
            if spec.hi is not None:
                yield pytest.param(check, base, key, _past(spec, spec.hi, +1), "out of range",
                                   id=f"{where}:{key}-hi")
            if spec.choices:
                yield pytest.param(check, base, key, "bogus", "must be one of",
                                   id=f"{where}:{key}-choices")


@pytest.mark.parametrize("check, base, key, value, message", _cases())
def test_schema_rejects_a_value_past_each_bound(check, base, key, value, message):
    check(base)  # the base params alone are accepted
    with pytest.raises((KernelError, InvariantError), match=f"parameter '{key}'.*{message}"):
        check({**base, key: value})


def test_every_schema_states_its_pinned_bounds():
    stated = {}
    for where, schema, _ in _schemas():
        bounds = {k: s.choices or (s.lo, s.hi) for k, s in schema.items()
                  if s.choices or s.lo is not None or s.hi is not None}
        if bounds:
            stated[where] = bounds
    assert stated == BOUNDS


@pytest.mark.parametrize("motif", sorted(REGISTRY))
def test_kernel_binds_its_operands_and_schema_names(motif):
    # execute calls fn(*operands, **coerced params) and catches only typed
    # errors: a schema name the kernel does not take would be a TypeError.
    spec = REGISTRY[motif]
    inspect.signature(spec.fn).bind(*range(spec.arity), **dict.fromkeys(spec.params))


def _generator_variants():
    """(id, generator, schema) for each model and distribution."""
    schemas = generators._SCHEMAS
    yield "text", generators.gen_text, schemas["text"]
    yield "graph/uniform", generators.gen_graph, schemas["graph"]
    yield "graph/rmat", generators.gen_graph, {**schemas["graph"], **generators._RMAT_PARAMS}
    for kind in ("matrix", "tensor"):
        for dist, params in sorted(generators.DISTRIBUTIONS.items()):
            yield f"{kind}/{dist}", getattr(generators, f"gen_{kind}"), {**schemas[kind], **params}
    # materialize pops `which`: it picks the table taken from gen_table's pair
    yield "table", generators.gen_table, {k: v for k, v in schemas["table"].items() if k != "which"}


GENERATORS = {name: (gen, schema) for name, gen, schema in _generator_variants()}


@pytest.mark.parametrize("variant", sorted(GENERATORS))
def test_generator_binds_its_schema_names(variant):
    # materialize calls gen_<kind>(**checked params, rng_seed=seed), the seed
    # popped from the params: a schema name the generator does not take would
    # be a TypeError, and one it requires but the schema lacks would be too.
    gen, schema = GENERATORS[variant]
    inspect.signature(gen).bind(rng_seed=0, **dict.fromkeys(k for k in schema if k != "seed"))
