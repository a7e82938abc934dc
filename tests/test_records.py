"""What callers rely on in motifbench's record classes, class by class.

Every record compares equal to a record of the same class with equal fields
and unequal when one field differs; hashes match for equal hashable records,
and a record holding a dict is unhashable; its repr names every field with
the value's repr, so values of different types read differently; every
record refuses assignment and deletion. The validating constructors keep
their messages.
"""

import math

import pytest

from motifbench.datasets import (
    Dataset,
    Graph,
    KeyValueSet,
    Matrix,
    Record,
    Table,
    Tensor,
    TextCorpus,
)
from motifbench.errors import EventError, FormulaError, InvariantError
from motifbench.generators import GenSpec
from motifbench.kernels import KernelSpec
from motifbench.params import ParamSpec
from motifbench.similarity import Dendrogram, MergeStep, PcaResult
from motifbench.topdown import (
    BreakdownNode,
    EventSample,
    MetricNode,
    MetricTree,
    MetricVector,
)
from motifbench.workload import (
    InputDecl,
    InvocationRecord,
    MotifInvocation,
    OutputDecl,
    RunReport,
    WorkloadSpec,
)


def _kernel(data, key):
    return data


_NODE = MetricNode("Retiring", "uops_retired / meta.cycles")
_MERGE = MergeStep(0, 1, 0.5, 2, 2)
_INPUT = InputDecl("a", 2, "matrix", path="a.matrix")
_INVOCATION = MotifInvocation("s", "sort.sort", ("a",), (("key", "0"),), 3)
_OUTPUT = OutputDecl("s", "out/s.matrix", 4)
_RECORD = InvocationRecord("s", "sort.sort", 10, 48, 48)

# name -> (a factory taking one field override, the fields in order,
#          the field varied and its other value, hashable)
RECORDS = {
    "TextCorpus": (lambda **kw: TextCorpus(kw.get("documents", ["a b", "c"])),
                   ("documents",), ("documents", ["a b", "d"]), True),
    "Table": (lambda **kw: Table([("id", "integer"), ("x", "real")],
                                 kw.get("columns", [(1,), (2.0,)])),
              ("schema", "columns"), ("columns", [(1,), (3.0,)]), True),
    "Matrix": (lambda **kw: Matrix(1, 2, kw.get("data", [1.0, 2.0])),
               ("rows", "cols", "data"), ("data", [1.0, 3.0]), True),
    "Tensor": (lambda **kw: Tensor(kw.get("shape", (2,)), [1.0, 2.0]),
               ("shape", "data"), ("shape", (1, 2)), True),
    "Graph": (lambda **kw: Graph(3, [(0, 1), (1, 2)], kw.get("directed", True)),
              ("vertex_count", "edges", "directed"), ("directed", False), True),
    "KeyValueSet": (lambda **kw: KeyValueSet(kw.get("entries", {"k": "v"})),
                    ("entries",), ("entries", {"k": "w"}), False),
    "Dataset": (lambda **kw: Dataset(kw.get("payload", Matrix(1, 1, [1.0]))),
                ("payload",), ("payload", Matrix(1, 1, [2.0])), True),
    "ParamSpec": (lambda **kw: ParamSpec(**{"kind": "int", "default": 0, "lo": 0, **kw}),
                  ("kind", "required", "default", "choices", "lo", "hi"), ("hi", 9), True),
    "GenSpec": (lambda **kw: GenSpec(**{"kind": "matrix", "rng_seed": 3,
                                        "params": (("rows", 2), ("cols", 2)), **kw}),
                ("kind", "rng_seed", "params"), ("rng_seed", 4), True),
    "EventSample": (lambda **kw: EventSample(**{"events": {"uops": 5.0}, "width": 4,
                                                "cycles": 10.0, "label": "w", **kw}),
                    ("events", "width", "cycles", "label"), ("label", "v"), False),
    "MetricNode": (lambda **kw: MetricNode(**{"name": "Retiring", "formula": "x / meta.cycles",
                                              "children": (_NODE,), **kw}),
                   ("name", "formula", "expected_fraction", "negative_ok", "children"),
                   ("negative_ok", True), True),
    "MetricTree": (lambda **kw: MetricTree(kw.get("roots", (_NODE,))),
                   ("roots",), ("roots", (MetricNode("Other", "x / meta.cycles"),)), True),
    "BreakdownNode": (lambda **kw: BreakdownNode(**{"name": "pipeline", "fraction": 1.0,
                                                    "children": (BreakdownNode("R", 0.5),),
                                                    **kw}),
                      ("name", "fraction", "negative_artifact", "children"),
                      ("fraction", 0.5), True),
    "MetricVector": (lambda **kw: MetricVector(**{"label": "w", "names": ("a", "b"),
                                                  "values": (1.0, 2.0), **kw}),
                     ("label", "names", "values"), ("values", (1.0, 3.0)), True),
    "PcaResult": (lambda **kw: PcaResult(**{"components": ((1.0, 0.0),),
                                            "projected": ((2.0,), (3.0,)),
                                            "explained": (0.75, 0.25), "retained": 1, **kw}),
                  ("components", "projected", "explained", "retained"), ("retained", 2), True),
    "MergeStep": (lambda **kw: MergeStep(**{"a": 0, "b": 1, "distance": 0.5, "new_id": 2,
                                            "size": 2, **kw}),
                  ("a", "b", "distance", "new_id", "size"), ("distance", 0.25), True),
    "Dendrogram": (lambda **kw: Dendrogram(2, kw.get("merges", (_MERGE,))),
                   ("leaf_count", "merges"), ("merges", (MergeStep(1, 0, 0.5, 2, 2),)), True),
    "InputDecl": (lambda **kw: InputDecl(**{"dataset_id": "a", "line": 2, "kind": "matrix",
                                            "path": "a.matrix", **kw}),
                  ("dataset_id", "line", "kind", "path", "genspec"),
                  ("genspec", GenSpec("matrix", 1, ())), True),
    "MotifInvocation": (lambda **kw: MotifInvocation(**{"result_id": "s", "motif": "sort.sort",
                                                        "operands": ("a",),
                                                        "params": (("key", "0"),), "line": 3,
                                                        **kw}),
                        ("result_id", "motif", "operands", "params", "line"),
                        ("params", (("key", "1"),)), True),
    "OutputDecl": (lambda **kw: OutputDecl(**{"dataset_id": "s", "path": "out/s.matrix",
                                              "line": 4, **kw}),
                   ("dataset_id", "path", "line"), ("path", "out/t.matrix"), True),
    "WorkloadSpec": (lambda **kw: WorkloadSpec(**{"name": "w", "inputs": (_INPUT,),
                                                  "invocations": (_INVOCATION,),
                                                  "outputs": (_OUTPUT,), **kw}),
                     ("name", "inputs", "invocations", "outputs"), ("outputs", ()), True),
    "InvocationRecord": (lambda **kw: InvocationRecord(**{"id": "s", "motif": "sort.sort",
                                                          "wall_ns": 10, "in_bytes": 48,
                                                          "out_bytes": 48, **kw}),
                         ("id", "motif", "wall_ns", "in_bytes", "out_bytes"),
                         ("wall_ns", 11), True),
    "RunReport": (lambda **kw: RunReport(**{"workload": "w", "repeat_index": 0,
                                            "invocations": (_RECORD,), "total_ns": 10,
                                            "family_fractions": {"sort": 1.0},
                                            "output_checksums": {"s": 7}, **kw}),
                  ("workload", "repeat_index", "invocations", "total_ns", "family_fractions",
                   "output_checksums"), ("output_checksums", {"s": 8}), False),
    "KernelSpec": (lambda **kw: KernelSpec(**{"family": "sort", "name": "sort",
                                              "input_kinds": (frozenset({"matrix"}),),
                                              "output_kind": "same", "fn": _kernel,
                                              "params": {"key": ParamSpec("int", default=0)},
                                              **kw}),
                   ("family", "name", "input_kinds", "output_kind", "fn", "params", "check"),
                   ("output_kind", "matrix"), False),
}

@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_compare_equal_and_one_differing_field_unequal(name):
    make, _, (field, other), _ = RECORDS[name]
    assert type(make()).__name__ == name
    assert make() == make()
    assert not make() != make()
    assert make() != make(**{field: other})
    assert not make() == make(**{field: other})


@pytest.mark.parametrize("name", RECORDS)
def test_hash_matches_for_equal_records_or_is_refused(name):
    make, _, _, hashable = RECORDS[name]
    if hashable:
        assert hash(make()) == hash(make())
    else:
        with pytest.raises(TypeError):
            hash(make())


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field_with_its_value_repr(name):
    make, fields, _, _ = RECORDS[name]
    record = make()
    want = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({want})"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen_record_refuses_assignment_and_deletion(name):
    make, fields, _, _ = RECORDS[name]
    record = make()
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_repr_tells_values_of_different_types_apart():
    assert repr(OutputDecl("a", "a.text", 3)) != repr(OutputDecl("a", "a.text", "3"))
    assert repr(MergeStep(0, 1, 1, 2, 2)) != repr(MergeStep(0, 1, 1.0, 2, 2))


def test_records_with_equal_values_differ_across_classes():
    class Span(Record):
        __slots__ = _fields = ("lo", "hi")

        def __init__(self, lo, hi):
            self._set(lo=lo, hi=hi)

    class OtherSpan(Span):
        __slots__ = ()

    assert Span(0.0, 1.0) == Span(0.0, 1.0)
    assert Span(0.0, 1.0) != OtherSpan(0.0, 1.0)


def test_motif_invocation_compares_its_fields_not_its_cached_params():
    first, second = RECORDS["MotifInvocation"][0](), RECORDS["MotifInvocation"][0]()
    assert first.kernel_params == {"key": 0}
    assert first.kernel_params is first.kernel_params
    assert first == second and hash(first) == hash(second)
    assert "kernel_params" not in repr(first)


def test_metric_tree_compares_its_roots_only():
    tree = MetricTree((_NODE,))
    assert tree.required_events() == {"uops_retired"}
    assert repr(tree) == f"MetricTree(roots={(_NODE,)!r})"


def test_defaults_are_fresh_or_empty():
    report = RunReport("w", 0, (), 0)
    assert report.family_fractions == {} and report.output_checksums == {}
    spec = KernelSpec("sort", "sort", (), "same", _kernel)
    assert spec.params == {} and spec.check is None
    assert dict(spec.params) == {}
    assert ParamSpec("str") == ParamSpec("str", False, None, None, None, None)
    assert EventSample({}, cycles=2.0) == EventSample({"cycles": 2.0}, 4, 2.0, "")


@pytest.mark.parametrize("build, error, message", [
    (lambda: Dendrogram(3, (_MERGE,)), InvariantError, "3 leaves need 2 merges, got 1"),
    (lambda: MetricVector("w", ("a", "b"), (1.0,)), EventError,
     "metric vector names/values length mismatch"),
    (lambda: MetricVector("w", ("a",), (math.inf,)), EventError,
     "metric 'a' has non-finite value inf"),
    (lambda: MetricTree(()), EventError, "metric tree has no root"),
    (lambda: MetricTree((_NODE, _NODE)), EventError, "duplicate metric name 'Retiring'"),
    (lambda: MetricTree((MetricNode("A", "A + 1"),)), FormulaError,
     "A: formula names 'A', which is not evaluated before it"),
    (lambda: MetricTree((MetricNode("A", "meta.x"),)), FormulaError,
     "A: unknown metadata name 'meta.x'"),
    (lambda: EventSample({}, width=0, cycles=1.0), EventError, "issue width must be >= 1, got 0"),
    (lambda: EventSample({}, cycles=0.0), EventError, "cycles must be present and > 0, got 0.0"),
    (lambda: EventSample({"a": math.nan}, cycles=1.0), EventError,
     "event 'a' has non-finite count nan"),
    (lambda: EventSample({"a": -1.0}, cycles=1.0), EventError, "event 'a' has negative count -1.0"),
    (lambda: Dataset(object()), InvariantError, "not a dataset payload: object"),
    (lambda: Dataset((1.0,)), InvariantError, "not a dataset payload: tuple"),
])
def test_validation_messages_hold(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_deep_metric_tree_is_refused():
    node = MetricNode("L6", "x / meta.cycles")
    for depth in range(5, 0, -1):
        node = MetricNode(f"L{depth}", "x / meta.cycles", children=(node,))
    with pytest.raises(EventError, match="^tree deeper than 5 levels at 'L6'$"):
        MetricTree((node,))
