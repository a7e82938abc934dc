import ast
import math
import pathlib
import sys

import pytest

import motifbench
from motifbench.datasets import (
    Dataset,
    Graph,
    KeyValueSet,
    Matrix,
    Table,
    Tensor,
    TextCorpus,
    kind_of,
)
from motifbench.errors import InvariantError

from .oracles import table_of_rows


def test_text_corpus_preserves_order():
    corpus = TextCorpus(["b", "a", "c"])
    assert corpus.documents == ("b", "a", "c")


def test_text_corpus_rejects_line_terminators():
    with pytest.raises(InvariantError):
        TextCorpus(["one\ntwo"])
    with pytest.raises(InvariantError):
        TextCorpus(["one\rtwo"])


def test_text_corpus_rejects_unencodable():
    with pytest.raises(InvariantError):
        TextCorpus(["bad \ud800 surrogate"])


# The canonical encoding writes every string as UTF-8, which has no lone
# surrogates: each string a payload holds is refused as TextCorpus refuses it.
@pytest.mark.parametrize("build", [
    lambda: table_of_rows([("s", "string")], [("ok",), ("bad \ud800",)]),
    lambda: Table([("\udfff", "string")], [()]),
    lambda: KeyValueSet({"ok": "1", "\ud800": "2"}),
    lambda: KeyValueSet({"a": "\ud800"}),
], ids=["table cell", "column name", "kv key", "kv value"])
def test_table_and_kv_reject_lone_surrogates(build):
    with pytest.raises(InvariantError, match="is not valid UTF-8: 'utf-8' codec can't encode"):
        build()


def test_table_kind_checked():
    with pytest.raises(InvariantError):
        Table([("a", "integer")], [("not an int",)])
    with pytest.raises(InvariantError):
        Table([("a", "bogus")], [()])
    with pytest.raises(InvariantError):
        Table([("a", "integer")], [(True,)])  # bools are not integers here


def test_table_real_accepts_ints_and_stores_floats():
    t = table_of_rows([("x", "real")], [(1,), (2.5,)])
    assert t.rows == ((1.0,), (2.5,))
    assert isinstance(t.rows[0][0], float)


def test_table_rejects_a_column_name_that_is_not_a_string():
    with pytest.raises(InvariantError, match="column name 5 is not a string"):
        Table([(5, "integer")], [()])


def test_table_duplicate_column_rejected():
    with pytest.raises(InvariantError):
        Table([("a", "integer"), ("a", "real")], [(), ()])


@pytest.mark.parametrize("columns", [[], [(), ()]], ids=["none", "two"])
def test_table_with_no_columns_is_refused(columns):
    # it would save as a file whose empty schema line does not load back;
    # the schema is checked before the columns are counted
    with pytest.raises(InvariantError, match="empty table schema"):
        Table([], columns)


SCHEMA = [("a", "integer"), ("b", "real")]


def test_table_stores_checked_columns():
    t = Table(SCHEMA, [range(3), [1, 2.5, -0.0]])
    assert t.columns == ((0, 1, 2), (1.0, 2.5, -0.0))
    assert isinstance(t.columns[1][0], float)
    assert t.rows == ((0, 1.0), (1, 2.5), (2, -0.0)) and len(t) == 3


@pytest.mark.parametrize("columns", [
    [(1, 2)],
    [(1, 2), (0.5, 1.5), ("x", "y")],
    [(1, 2), (0.5,)],
    [(1,), (0.5, 1.5)],
], ids=["too few", "too many", "shorter", "longer"])
def test_table_refuses_a_wrong_column_count_or_unequal_lengths(columns):
    with pytest.raises(InvariantError, match="schema has 2 columns"):
        Table(SCHEMA, columns)


def test_a_bad_cell_is_named_by_row_and_column():
    with pytest.raises(InvariantError, match=r"^row 2 column 'b' must be finite, got inf$"):
        Table(SCHEMA, [range(4), [0.5, 1, math.inf, -math.inf]])


def test_matrix_shape_and_finiteness():
    m = Matrix(2, 2, [1, 2, 3, 4])
    assert m.data[2] == 3.0  # row 1, column 0
    with pytest.raises(InvariantError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(InvariantError):
        Matrix(2, 2, [1, 2, 3, math.nan])
    with pytest.raises(InvariantError):
        Matrix(0, 2, [])


@pytest.mark.parametrize("value", ["1.5", True, None])
def test_matrix_rejects_values_that_are_not_numbers(value):
    with pytest.raises(InvariantError, match="matrix values must be numbers"):
        Matrix(1, 2, [0.5, value])


@pytest.mark.parametrize("build", [
    lambda v: Matrix(1, 1, [v]),
    lambda v: Tensor((1,), [v]),
    lambda v: Table([("x", "real")], [(v,)]),
], ids=["matrix", "tensor", "table"])
def test_int_beyond_the_float_range_is_rejected(build):
    with pytest.raises(InvariantError, match="must be finite, got 1000"):
        build(10**400)
    # binary64 rounds half to even: this int is the least that rounds to inf
    with pytest.raises(InvariantError, match=f"must be finite, got {2**1024 - 2**970}"):
        build(2**1024 - 2**970)
    assert str(sys.float_info.max) in repr(build(2**1024 - 2**970 - 1))


def test_tensor_shape_product():
    t = Tensor((2, 3), range(6))
    assert t.rank == 2 and t.strides() == (3, 1)
    with pytest.raises(InvariantError):
        Tensor((2, 3), range(5))
    with pytest.raises(InvariantError):
        Tensor((2, 0), [])
    with pytest.raises(InvariantError):
        Tensor((2,), [1.0, math.inf])


def test_graph_endpoint_range():
    g = Graph(3, [(0, 1), (2, 2)], directed=True)  # self-loop allowed
    assert g.edges == ((0, 1), (2, 2))
    with pytest.raises(InvariantError) as err:
        Graph(2, [(0, 5)])
    assert "out of range" in str(err.value)
    with pytest.raises(InvariantError):
        Graph(0, [])


@pytest.mark.parametrize("edge", [(0,), (0, 1, 2), (0, 1.0), (True, 1), (0, "1")],
                         ids=["one-end", "three-ends", "float", "bool", "str"])
def test_graph_edge_not_two_integers_text_is_pinned(edge):
    with pytest.raises(InvariantError) as err:
        Graph(3, [(0, 1), (2, 2), edge])
    assert str(err.value) == ("edge 2 endpoint out of range or not an integer: "
                              f"{edge!r} with vertex_count 3")


@pytest.mark.parametrize("build, index, message", [
    (lambda: Graph(3, [(0, 1), (2, 3)]), 1, "endpoint out of range: (2, 3) with vertex_count 3"),
    # an edge that is not two integers is refused before one out of range
    (lambda: Graph(3, [(0, 5), (0, "1")]), 1,
     "edge 1 endpoint out of range or not an integer: (0, '1') with vertex_count 3"),
    (lambda: TextCorpus(["a", "b\r"]), 1, "document 1 contains '\\r'"),
    (lambda: Table(SCHEMA, [range(3), [0.5, math.inf, 1]]), 1,
     "row 1 column 'b' must be finite, got inf"),
    (lambda: Matrix(2, 2, [1, 2, math.nan, 4]), 2, "matrix values must be finite, got nan"),
    (lambda: KeyValueSet({"a": "1", "b": "x\r"}), 1, "value for key 'b' contains '\\r'"),
], ids=["edge-range", "edge-type-first", "corpus", "table", "matrix", "kv"])
def test_a_refusal_carries_the_index_of_the_value_it_names(build, index, message):
    with pytest.raises(InvariantError) as err:
        build()
    assert (err.value.index, str(err.value)) == (index, message)


@pytest.mark.parametrize("build", [
    lambda: Matrix(True, 1, [1.0]),
    lambda: Matrix(1, True, [1.0]),
    lambda: Graph(True, []),
], ids=["matrix rows", "matrix cols", "graph vertex_count"])
def test_counts_reject_bools(build):
    with pytest.raises(InvariantError, match="must be a positive count.*got True"):
        build()


@pytest.mark.parametrize("shape", [(2.7,), ("2",), (True,), ()])
def test_tensor_rejects_a_shape_that_is_not_positive_integers(shape):
    with pytest.raises(InvariantError, match="tensor shape"):
        Tensor(shape, [1.0, 2.0])


@pytest.mark.parametrize("edges", [[(1.5, 2)], [(0, 1), (True, 2)], [(0, "1")], [(0, 1, 2)]])
def test_graph_rejects_an_edge_that_is_not_two_integers(edges):
    with pytest.raises(InvariantError, match=f"edge {len(edges) - 1} "):
        Graph(3, edges)


def test_graph_duplicate_edges_kept():
    g = Graph(2, [(0, 1), (0, 1)])
    assert len(g.edges) == 2


def test_kv_rejects_duplicates_and_tabs():
    with pytest.raises(InvariantError):
        KeyValueSet([("k", "1"), ("k", "2")])
    with pytest.raises(InvariantError):
        KeyValueSet({"a\tb": "v"})
    ok = KeyValueSet({"a": "v\twith tab"})  # tabs fine in values
    assert ok.entries["a"] == "v\twith tab"


def _dataset_builders(node, module: str, scope: str, found: list):
    """Append module.function for each Dataset(...) call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and "Dataset" in (getattr(child.func, "id", None),
                                                         getattr(child.func, "attr", None)):
            found.append(f"{module}.{scope}")
        is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        _dataset_builders(child, module, child.name if is_def else scope, found)


def test_dataset_is_built_only_where_a_payload_is_read_or_generated():
    # Everything else takes and passes payloads; load_dataset and materialize
    # still return a Dataset, since the benchmark tracer reads its `.payload`.
    root = pathlib.Path(motifbench.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        _dataset_builders(ast.parse(path.read_text(encoding="utf-8")), module, "<module>", found)
    assert sorted(set(found)) == ["dataio.load_dataset", "generators.materialize"]


def test_dataset_kinds():
    assert kind_of(TextCorpus([])) == "text"
    assert kind_of(Matrix(1, 1, [0.0])) == "matrix"
    assert kind_of(Dataset(Matrix(1, 1, [0.0])).payload) == "matrix"
    with pytest.raises(InvariantError):
        Dataset("not a payload")  # type: ignore[arg-type]
