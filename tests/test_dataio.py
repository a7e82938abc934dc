import ast
import errno
import math
import os
import pathlib
import random
import stat
import struct

import pytest

import motifbench
from motifbench import dataio
from motifbench.dataio import (
    checksum_payload,
    load_dataset,
    open_output,
    payload_size,
    save_dataset,
)
from motifbench.datasets import (
    Graph,
    KeyValueSet,
    Matrix,
    Table,
    Tensor,
    TextCorpus,
)
from motifbench.errors import FormatError, InvariantError
from motifbench.generators import RMAT_DEFAULT, gen_graph

from .oracles import table_of_rows


def roundtrip(tmp_path, payload, **kwargs):
    path = str(tmp_path / "data.bin")
    save_dataset(payload, path, **kwargs)
    return load_dataset(path).payload


def test_matrix_roundtrip_identity(tmp_path):
    m = Matrix(2, 2, [1, 2, 3, 4])
    assert roundtrip(tmp_path, m) == m


def test_matrix_text_mode_roundtrip(tmp_path):
    m = Matrix(3, 2, [0.1, -2.5, 3e-17, 4.0, 5.5, 6.25])
    assert roundtrip(tmp_path, m, text_matrix=True) == m


def test_empty_corpus_roundtrip(tmp_path):
    path = str(tmp_path / "empty.txt")
    save_dataset(TextCorpus([]), path)
    with open(path, "rb") as fh:
        assert fh.read() == b""
    assert load_dataset(path).payload == TextCorpus([])


def test_corpus_roundtrip_preserves_order(tmp_path):
    corpus = TextCorpus(["zeta", "alpha", "", "  spaced  "])
    assert roundtrip(tmp_path, corpus) == corpus


def test_corpus_header_collision_rejected(tmp_path):
    bad = TextCorpus(["#graph v1 2 1", "0 1"])
    with pytest.raises(InvariantError):
        save_dataset(bad, str(tmp_path / "x"))


def test_save_refuses_a_foreign_object_before_making_any_file(tmp_path):
    # save_dataset takes the payload itself, so it checks the kind itself.
    with pytest.raises(InvariantError, match="not a dataset payload: tuple"):
        save_dataset((1.0,), str(tmp_path / "new" / "x"))
    assert list(tmp_path.iterdir()) == []


def test_table_roundtrip_with_quoting(tmp_path):
    t = table_of_rows(
        [("name", "string"), ("n", "integer"), ("x", "real")],
        [("has,comma", 1, 0.5), ('has"quote', -2, 1e-9), ("plain", 3, 2.0)],
    )
    assert roundtrip(tmp_path, t) == t


def test_table_roundtrip_with_carriage_returns(tmp_path):
    t = table_of_rows([("s", "string"), ("n", "integer"), ("last", "string")],
                      [("\r", 1, "x"), ("a\rb", 2, "\r"), ("plain", 3, "y")])
    assert roundtrip(tmp_path, t) == t


def test_tensor_roundtrip(tmp_path):
    t = Tensor((2, 3, 4), [float(i) for i in range(24)])
    assert roundtrip(tmp_path, t) == t


def test_graph_roundtrip(tmp_path):
    g = Graph(4, [(0, 1), (1, 2), (3, 3)], directed=False)
    assert roundtrip(tmp_path, g) == g


def test_kv_roundtrip(tmp_path):
    kv = KeyValueSet({"b": "2", "a": "1", "weird": "tab\there"})
    assert roundtrip(tmp_path, kv) == kv


def test_generated_graph_checksum_stable_over_roundtrip(tmp_path):
    g = gen_graph(64, 300, 7, "rmat", *RMAT_DEFAULT)
    before = checksum_payload(g)
    after = checksum_payload(roundtrip(tmp_path, g))
    assert before == after


def test_graph_endpoint_out_of_range_on_load(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("#graph v1 2 1\n0 5\n")
    with pytest.raises(FormatError) as err:
        load_dataset(str(path))
    assert "endpoint out of range" in str(err.value)


# Every count in a header is stored as an unsigned 64-bit integer by the
# canonical encoding. A graph's vertex count is the only one not bounded by
# the data that follows it, so a count of 2**64 or more must fail on load.
@pytest.mark.parametrize("content", [
    b"#graph v1 18446744073709551616 1\n",
    b"#graph v1 999999999999999999995 1\n0 1\n4 2\n3 3\n1 0\n",
    b"#graph v1 0 1\n",
    b"#matrix v1 18446744073709551616 1 text\n1.0\n",
    b"#matrix v1 18446744073709551616 1\n" + bytes(8),
    b"#tensor v1 18446744073709551616\n" + bytes(8),
], ids=["graph-2**64", "graph-huge-with-edges", "graph-zero", "text-matrix-rows",
        "matrix-rows", "tensor-dim"])
def test_header_count_outside_64_bits_is_format_error(tmp_path, content):
    path = tmp_path / "bad"
    path.write_bytes(content)
    with pytest.raises(FormatError) as err:
        load_dataset(str(path))
    if content.startswith(b"#graph"):
        assert str(err.value).startswith(f"{path}:1: vertex_count must be")


def test_graph_vertex_count_bounded_by_64_bits():
    checksum_payload(Graph(2**64 - 1, [(0, 2**64 - 2)]))
    with pytest.raises(InvariantError):
        Graph(2**64, [])


def test_table_arity_mismatch_on_load(tmp_path):
    path = tmp_path / "bad.table"
    path.write_text("#table v1\na:integer,b:integer\n1,2\n3\n")
    with pytest.raises(FormatError) as err:
        load_dataset(str(path))
    assert "arity" in str(err.value) and ":4" in str(err.value)


@pytest.mark.parametrize("body, message", [
    ('"a\nb",zz\n', ":3: cell 'zz' is not a valid integer"),
    ('"a\nb\nc",1\nx,zz\n', ":6: cell 'zz' is not a valid integer"),
    ('"a\nb\nc",1\nx\n', ":6: row arity 1"),
], ids=["on-its-first-line", "after-it", "arity-after-it"])
def test_table_error_line_counts_the_lines_of_a_quoted_cell(tmp_path, body, message):
    path = tmp_path / "bad.table"
    path.write_text("#table v1\ns:string,n:integer\n" + body)
    with pytest.raises(FormatError, match=message):
        load_dataset(str(path))


@pytest.mark.parametrize("body, message", [
    ('"' + "x" * 200_000 + '"\n', ":3: bad CSV record"),
    ("1\n" + "9" * 20 + "\n", "expected a 64-bit integer"),
], ids=["beyond-csv-field-limit", "beyond-64-bits"])
def test_table_cell_out_of_range_on_load(tmp_path, body, message):
    path = tmp_path / "bad.table"
    path.write_text("#table v1\na:integer\n" + body)
    with pytest.raises(FormatError, match=message):
        load_dataset(str(path))


@pytest.mark.parametrize("schema, body, message", [
    ("a:integer", "1\n99999999999999999999\n",
     ":4: row 1 column 'a': expected a 64-bit integer, got 99999999999999999999"),
    ("s:string,x:real", "p,1.5\n\nq,nan\n", ":5: row 1 column 'x' must be finite, got nan"),
    # the whole-table check names the first bad cell column by column
    ("a:integer,x:real", "1,inf\n" + "9" * 20 + ",2.0\n", ":4: row 1 column 'a'"),
    # records are checked in file order: the first record's fault is named,
    # whichever of arity and cell each record breaks
    ("a:integer,b:integer", "1,zz\n3\n", ":3: cell 'zz' is not a valid integer"),
    ("a:integer,b:integer", "1\n2,zz\n", ":3: row arity 1 != schema arity 2"),
], ids=["integer-beyond-64-bits", "nan-real-after-blank-line", "first-bad-column-first",
        "bad-cell-before-short-record", "short-record-before-bad-cell"])
def test_table_cell_breaking_its_column_rule_names_its_line(tmp_path, schema, body, message):
    path = tmp_path / "bad.table"
    path.write_text(f"#table v1\n{schema}\n{body}")
    with pytest.raises(FormatError, match=message):
        load_dataset(str(path))


# The whole text of each loader error, after the file's path: the line it
# names and the message. Blank body lines count toward the line numbers.
LOADER_ERRORS = {
    "matrix-header-not-integer": (
        b"#matrix v1 2 x\n", "1: malformed matrix header '#matrix v1 2 x'"),
    "matrix-header-field-count": (
        b"#matrix v1 2 2 csv\n", "1: malformed matrix header '#matrix v1 2 2 csv'"),
    "text-matrix-cell-count": (
        b"#matrix v1 2 2 text\n1,2\n\n3\n", "4: matrix row has 1 cells, expected 2"),
    "text-matrix-not-a-number": (
        b"#matrix v1 2 2 text\n1,2\n3,x\n", "3: matrix cell is not a number"),
    "matrix-dimensions": (b"#matrix v1 0 2\n", "1: bad matrix dimensions 0x2"),
    "tensor-dimension-not-integer": (
        b"#tensor v1 2 x\n", "1: malformed tensor header '#tensor v1 2 x'"),
    "tensor-dimension-not-positive": (b"#tensor v1 2 0\n", "1: bad tensor shape [2, 0]"),
    "tensor-no-dimension": (b"#tensor v1\n", "1: bad tensor shape []"),
    "graph-header-field-count": (
        b"#graph v1 3\n0 1\n", "1: malformed graph header '#graph v1 3'"),
    "graph-count-not-integer": (
        b"#graph v1 x 1\n0 1\n", "1: malformed graph header '#graph v1 x 1'"),
    "graph-flag-2": (b"#graph v1 3 2\n0 1\n", "1: malformed graph header '#graph v1 3 2'"),
    "edge-three-fields": (b"#graph v1 3 1\n0 1\n\n0 1 2\n", "4: bad edge line '0 1 2'"),
    "edge-endpoint-not-integer": (b"#graph v1 3 1\n0 a\n", "2: bad edge line '0 a'"),
    "edge-endpoint-out-of-range": (
        b"#graph v1 3 1\n0 1\n2 3\n", "3: endpoint out of range: (2, 3) with vertex_count 3"),
    "edge-whitespace-line-skipped": (b"#graph v1 3 1\n0 1\n \t \n1 x\n", "4: bad edge line '1 x'"),
    "kv-no-tab": (b"#kv v1\na\t1\nb 2\n", "3: kv line missing tab separator: 'b 2'"),
    "kv-duplicate-key": (b"#kv v1\na\t1\n\nb\t2\na\t3\n", "5: duplicate key 'a'"),
    "table-schema-empty-entry": (
        b"#table v1\nid:integer,,x:real,\n1,2.0\n", "2: bad schema entry ''"),
    "table-header-only": (b"#table v1", "2: table file missing schema line"),
    "table-schema-empty-name": (b"#table v1\n:integer\n1\n", "2: empty column name"),
    # a value the payload refuses, on the line of its record
    "corpus-line-with-cr": (b"a\nb\rc\n", "2: document 1 contains '\\r'"),
    "corpus-crlf": (b"a\r\nb\r\n", "1: document 0 contains '\\r'"),
    "text-matrix-inf-after-blank-line": (
        b"#matrix v1 2 2 text\n\n1,inf\n3,4\n", "3: matrix values must be finite, got inf"),
    "kv-value-with-cr": (b"#kv v1\na\t1\nb\tx\ry\n", "3: value for key 'b' contains '\\r'"),
    # a malformed record before a refused value on an earlier line
    "edge-bad-line-after-out-of-range": (
        b"#graph v1 3 1\n0 5\n\n1 x\n", "4: bad edge line '1 x'"),
}


@pytest.mark.parametrize("content, where_and_message", LOADER_ERRORS.values(),
                         ids=LOADER_ERRORS.keys())
def test_loader_error_text_is_pinned(tmp_path, content, where_and_message):
    path = tmp_path / "bad"
    path.write_bytes(content)
    with pytest.raises(FormatError) as err:
        load_dataset(str(path))
    assert str(err.value) == f"{path}:{where_and_message}"


def test_matrix_header_consistency_on_load(tmp_path):
    path = tmp_path / "ok.matrix"
    save_dataset(Matrix(2, 3, range(6)), str(path))
    loaded = load_dataset(str(path)).payload
    assert loaded.rows * loaded.cols == len(loaded.data)


def test_unknown_header_rejected(tmp_path):
    path = tmp_path / "odd"
    path.write_text("#blob v1 12\n")
    with pytest.raises(FormatError):
        load_dataset(str(path))


def test_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_dataset(str(tmp_path / "nope"))


def test_truncated_matrix_body(tmp_path):
    path = tmp_path / "trunc.matrix"
    path.write_bytes(b"#matrix v1 2 2\n" + b"\x00" * 17)
    with pytest.raises(FormatError):
        load_dataset(str(path))
    # a body of the right length is still checked value by value
    path.write_bytes(b"#matrix v1 2 2\n" + struct.pack("<4d", 1.0, math.nan, 3.0, 4.0))
    with pytest.raises(FormatError, match="finite"):
        load_dataset(str(path))


def test_checksum_deterministic_and_sensitive():
    a = Matrix(2, 2, [1, 2, 3, 4])
    assert checksum_payload(a) == checksum_payload(Matrix(2, 2, [1, 2, 3, 4]))
    assert checksum_payload(a) != checksum_payload(Matrix(2, 2, [1, 2, 3, 5]))


def test_checksum_distinguishes_kinds():
    # same numeric content, different payload kind
    assert checksum_payload(Matrix(1, 2, [1.0, 2.0])) != checksum_payload(
        Tensor((1, 2), [1.0, 2.0])
    )


def test_checksum_perturbation_sweep(tmp_path):
    rng = random.Random(1234)
    base = [rng.uniform(-10, 10) for _ in range(64)]
    reference = checksum_payload(Matrix(8, 8, base))
    for _ in range(50):
        mutated = list(base)
        mutated[rng.randrange(64)] += rng.choice([-1.0, 1e-9, 1.0])
        assert checksum_payload(Matrix(8, 8, mutated)) != reference


def test_payload_size_positive():
    assert payload_size(TextCorpus(["x"])) > 0


def test_empty_table_roundtrip(tmp_path):
    t = Table([("a", "integer"), ("b", "string")], [(), ()])
    assert roundtrip(tmp_path, t) == t


def test_edgeless_graph_roundtrip(tmp_path):
    g = Graph(5, [], directed=True)
    assert roundtrip(tmp_path, g) == g


def test_empty_kv_roundtrip(tmp_path):
    kv = KeyValueSet({})
    assert roundtrip(tmp_path, kv) == kv


# ---------------------------------------------------------------------------
# atomic output


class _FailingFile:
    """A file whose n-th write raises ENOSPC, as a full disk would."""

    def __init__(self, fh, fail_at):
        self._fh, self._left = fh, fail_at

    def write(self, data):
        self._left -= 1
        if self._left == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def fail_on_write(monkeypatch, n):
    """Make the n-th write to every file dataio opens raise ENOSPC."""
    monkeypatch.setattr(dataio, "open", lambda *a, **kw: _FailingFile(open(*a, **kw), n),
                        raising=False)


GRAPH_1000 = Graph(1000, [(i, (7 * i + 1) % 1000) for i in range(1000)], directed=True)
MATRIX_64 = Matrix(8, 8, [i / 3 for i in range(64)])


@pytest.mark.parametrize("payload, fail_at", [(GRAPH_1000, 401), (MATRIX_64, 2)],
                         ids=["graph", "binary-matrix"])
@pytest.mark.parametrize("existing", [True, False], ids=["over-old-file", "fresh-path"])
def test_failed_save_leaves_no_partial_file(tmp_path, monkeypatch, payload, fail_at, existing):
    path = tmp_path / "new" / "data"
    if existing:
        save_dataset(payload, str(path))
    old = path.read_bytes() if existing else None
    fail_on_write(monkeypatch, fail_at)
    with pytest.raises(OSError):
        save_dataset(payload, str(path))
    assert os.listdir(path.parent) == (["data"] if existing else [])
    if existing:
        assert path.read_bytes() == old


@pytest.mark.parametrize("binary", [False, True])
def test_open_output_replaces_file_and_creates_parent(tmp_path, binary):
    path = tmp_path / "a" / "b" / "out"
    for text in ("first, longer content\n", "second\r\n"):
        with open_output(str(path), binary=binary) as fh:
            fh.write(text.encode("utf-8") if binary else text)
    assert path.read_bytes() == b"second\r\n"
    assert os.listdir(path.parent) == ["out"]


def test_open_output_accepts_longest_file_name(tmp_path):
    path = tmp_path / ("x" * 255)
    with open_output(str(path)) as fh:
        fh.write("x")
    assert os.listdir(tmp_path) == [path.name]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_open_output_mode_follows_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open_output(str(tmp_path / "out")) as fh:
            fh.write("x")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out").st_mode) == 0o666 & ~umask


# The only functions that may call open(): the atomic writer, the reader, and
# the one-row append of metric vectors, which would turn quadratic if each
# append copied the file.
OPENERS = {
    ("dataio.py", "open_output"),
    ("dataio.py", "read_input"),
    ("similarity.py", "append_vector_csv"),
}


def _opens(path: pathlib.Path):
    """(file, enclosing function) of each call to a function named open."""
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", "")
                if name == "open":
                    found.add((path.name, func))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_files_are_opened_only_through_read_input_and_open_output():
    src = pathlib.Path(motifbench.__file__).parent
    found = set().union(*(_opens(p) for p in sorted(src.rglob("*.py"))))
    assert found == OPENERS


def _location_prefixes(tree: ast.AST):
    """F-strings that write a location ahead of a message: one that opens
    with `{path}`, one that opens with `line {...}`, and one printed to
    stderr that opens with a formatted value and `: `."""
    stderr_args = {id(arg) for call in ast.walk(tree) if isinstance(call, ast.Call)
                   if any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                          for kw in call.keywords) for arg in call.args}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.JoinedStr) and len(node.values) > 1):
            continue
        head, second = node.values[:2]
        if isinstance(head, ast.FormattedValue):
            if ast.unparse(head.value) == "path" or (
                    id(node) in stderr_args and isinstance(second, ast.Constant)
                    and second.value.startswith(": ")):
                yield node
        elif head.value == "line " and isinstance(second, ast.FormattedValue):
            yield node


def test_a_path_prefix_is_written_only_by_the_error_base():
    # MotifBenchError writes `path: ` and `path:line: ` ahead of a message;
    # a reader or a spec check passes path= and line= to it, and the CLI
    # prints the error's own text.
    root = pathlib.Path(motifbench.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py")) if path != root / "errors.py"
             for node in _location_prefixes(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
