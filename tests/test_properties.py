"""Property tests for the payload constructors, the readers and the spec parser.

Whatever bytes a dataset file holds, load_dataset returns a payload that can
be checksummed or raises FormatError; whatever a spec file says, parse_spec
returns a spec or raises SpecError; a payload saved and loaded back keeps
its checksum; payload_size is the length of canonical_bytes, and a table
encodes as its cells do one at a time; a table built from its columns reads
back, through its rows view, the rows the columns were cut from; each table
kernel returns what its row-form reference in tests/oracles.py returns; a
corpus, table or key-value set with one bad value is refused or stored just
as the scalar loops in tests/oracles.py do; a line-based file with one
refused value is refused on that value's line, with the payload's message;
and a CSV record of floats is written as the record of their reprs.
"""

import csv
import io
import math
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from motifbench.dataio import (
    canonical_bytes,
    checksum_payload,
    load_dataset,
    payload_size,
    read_input,
    save_dataset,
    write_csv_record,
)
from motifbench.datasets import (
    TABLE_KINDS,
    Graph,
    KeyValueSet,
    Matrix,
    Table,
    Tensor,
    TextCorpus,
)
from motifbench.errors import FormatError, InvariantError, KernelError, SpecError
from motifbench.kernels import REGISTRY
from motifbench.workload import parse_spec

from .oracles import (
    row_aggregate,
    row_filter,
    row_project,
    row_sample,
    row_sort,
    row_union,
    scalar_corpus_documents,
    scalar_kv_entries,
    scalar_table_bytes,
    scalar_table_rows,
    table_of_rows,
)
from .shipped import SHIPPED_SPECS, shipped_spec_path
from .test_pinned import PAYLOADS

finite = st.floats(allow_nan=False, allow_infinity=False)
dims = st.integers(1, 4)
# One line of text: no line terminator, no lone surrogate.
line = st.text(st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
               max_size=10)


@st.composite
def matrices(draw):
    rows, cols = draw(dims), draw(dims)
    return Matrix(rows, cols, draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols)))


@st.composite
def tensors(draw):
    shape = draw(st.lists(dims, min_size=1, max_size=3))
    size = math.prod(shape)
    return Tensor(shape, draw(st.lists(finite, min_size=size, max_size=size)))


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    return Graph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=10)), draw(st.booleans()))


# A real column may be given ints, which it stores as floats.
int_or_finite = finite | st.integers(-2**70, 2**70)


def table_rows(kinds, real=finite, min_rows=0):
    """Up to five rows whose cells suit the column `kinds`."""
    cell = {"integer": st.integers(-2**63, 2**63 - 1), "real": real,
            "string": st.text(max_size=8)}
    return st.lists(st.tuples(*(cell[k] for k in kinds)), min_size=min_rows, max_size=5)


@st.composite
def tables(draw, column_kinds=tuple(TABLE_KINDS), real=finite, min_rows=0):
    name = st.text(st.characters(blacklist_characters=":,\n\r", blacklist_categories=("Cs",)),
                   min_size=1, max_size=6)
    names = draw(st.lists(name, min_size=1, max_size=4, unique=True))
    kinds = draw(st.lists(st.sampled_from(column_kinds),
                          min_size=len(names), max_size=len(names)))
    return table_of_rows(list(zip(names, kinds)), draw(table_rows(kinds, real, min_rows)))


kv_key = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
                 max_size=6)
# Corpus lines include some that read like format headers.
corpus_line = line | st.sampled_from(["#table v1", "#graph v1 3 0", "#blob v1 2", "#", "# v1"])

payloads = st.one_of(
    st.lists(corpus_line, max_size=6).map(TextCorpus),
    tables(),
    matrices(),
    tensors(),
    graphs(),
    st.dictionaries(kv_key, line, max_size=6).map(KeyValueSet),
)


@settings(max_examples=400, deadline=None)
@given(payload=payloads)
@example(payload=TextCorpus([]))
@example(payload=TextCorpus(["naïve café ☕", "", "日本語"]))
@example(payload=Table([("ü", "integer"), ("r€", "real"), ("s", "string")], [(), (), ()]))
@example(payload=table_of_rows([("ü", "integer"), ("r€", "real"), ("s", "string")],
                               [(1, 2.5, "ünï ☕"), (-2**63, -0.0, "")]))
@example(payload=table_of_rows([("n", "integer"), ("x", "real")],
                               [(7, 0.5), (2**63 - 1, 1e300)]))
@example(payload=Matrix(1, 1, [0.0]))
@example(payload=Tensor((1,), [0.0]))
@example(payload=Graph(3, []))
@example(payload=KeyValueSet({}))
@example(payload=KeyValueSet({"ключ": "значение ☕", "": "€"}))
def test_payload_size_is_the_canonical_length(payload):
    assert payload_size(payload) == len(canonical_bytes(payload))


@settings(max_examples=200, deadline=None)
@given(table=tables() | tables(column_kinds=("integer", "real")))
@example(table=Table([("n", "integer"), ("x", "real")], [(), ()]))
@example(table=table_of_rows([("x", "real"), ("n", "integer"), ("m", "integer")],
                             [(-0.0, -1, 2**63 - 1), (1e-300, -2**63, 0)]))
def test_canonical_bytes_of_a_table_as_encoded_cell_by_cell(table):
    assert canonical_bytes(table) == scalar_table_bytes(table)


# The csv module writes a float as its repr, so writers may pass floats as
# they are; CRs in the string fields switch the record to QUOTE_ALL.
@settings(max_examples=500, deadline=None)
@given(record=st.lists(st.floats() | st.integers()
                       | st.text(st.sampled_from('a,"\r\n é')) | st.text(), min_size=1))
@example(record=[-0.0, 5e-324, 1e16, 1.7976931348623157e308, "a\rb"])
def test_a_record_of_floats_is_written_as_the_record_of_their_reprs(record):
    as_floats, as_reprs = io.StringIO(), io.StringIO()
    write_csv_record(as_floats, record)
    write_csv_record(as_reprs, [repr(f) if type(f) is float else f for f in record])
    assert as_floats.getvalue() == as_reprs.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_table_from_its_columns_equals_the_table_from_its_rows(data):
    kinds = data.draw(st.lists(st.sampled_from(list(TABLE_KINDS)), min_size=1, max_size=4))
    schema = [(f"c{j}", kind) for j, kind in enumerate(kinds)]
    rows = data.draw(table_rows(kinds, int_or_finite))
    table = Table(schema, zip(*rows) if rows else [()] * len(kinds))
    assert table.rows == scalar_table_rows(schema, rows) and len(table) == len(rows)
    assert table.columns == (tuple(zip(*table.rows)) if rows else ((),) * len(kinds))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=payloads, text_matrix=st.booleans())
def test_load_of_save_keeps_the_checksum(tmp_path, payload, text_matrix):
    path = str(tmp_path / "data")
    try:
        save_dataset(payload, path, text_matrix=text_matrix)
    except InvariantError:
        # only a corpus whose first line reads as a format header is refused
        assert isinstance(payload, TextCorpus) and payload.documents[0].startswith("#")
        return
    assert checksum_payload(load_dataset(path).payload) == checksum_payload(payload)


def _saved_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("saved")
    files = []
    for kind, payload in sorted(PAYLOADS.items()):
        save_dataset(payload, str(out / kind))
        files.append((out / kind).read_bytes())
    save_dataset(PAYLOADS["matrix"], str(out / "matrix.txt"), text_matrix=True)
    files.append((out / "matrix.txt").read_bytes())
    return files


# Random bytes, plus pieces that hit the parsers' edge cases: a byte that is
# not UTF-8, line ends, separators, an integer beyond 64 bits, a NaN.
BYTE_PIECES = st.binary(max_size=3) | st.sampled_from(
    [b"\xff", b"\n", b"\r\n", b"\r", b",", b"\t", b'"', b"9" * 20, b"nan", b"-0"])


@st.composite
def mutations(draw, blob: bytes):
    """`blob` with a few byte spans replaced, then possibly cut short."""
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(blob)))
        span = draw(st.integers(0, 3))
        blob = blob[:at] + draw(BYTE_PIECES) + blob[at + span:]
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


def test_load_of_mutated_files_raises_only_format_error(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "data"

    @settings(max_examples=600, deadline=None)
    @given(blob=st.sampled_from(_saved_files(tmp_path_factory)).flatmap(mutations))
    # a vertex count beyond the 64 bits of the canonical encoding
    @example(blob=b"#graph v1 999999999999999999995 1\n0 1\n4 2\n3 3\n1 0\n")
    def check(blob):
        path.write_bytes(blob)
        try:
            payload = load_dataset(str(path)).payload
        except FormatError:
            return
        checksum_payload(payload)

    check()


# Values a payload column may refuse: beyond 64 bits, non-finite, not a
# string, a line terminator, a tab, a lone surrogate; plus some it accepts.
BAD_VALUES = [True, False, 2**63, -2**63 - 1, math.inf, -math.inf, math.nan, None, 7, -0.0,
              2.5, b"x", "a\nb", "ab\r", "a\tb", "\ud800", ""]
small_key = st.text("abc", min_size=1, max_size=3)


@st.composite
def corpus_cases(draw):
    docs = draw(st.lists(line, max_size=6))
    docs.insert(draw(st.integers(0, len(docs))), draw(st.sampled_from(BAD_VALUES)))
    return docs


@st.composite
def table_cases(draw):
    kinds = draw(st.lists(st.sampled_from(list(TABLE_KINDS)), min_size=1, max_size=3))
    schema = [(f"c{j}", kind) for j, kind in enumerate(kinds)]
    cell = {"integer": st.integers(-2**63, 2**63 - 1),
            "real": finite | st.integers(-2**70, 2**70), "string": line}
    rows = [list(row) for row in
            draw(st.lists(st.tuples(*(cell[k] for k in kinds)), min_size=1, max_size=5))]
    r = draw(st.integers(0, len(rows) - 1))
    if draw(st.booleans()):  # one bad cell, or none
        rows[r][draw(st.integers(0, len(kinds) - 1))] = draw(st.sampled_from(BAD_VALUES))
    return schema, [tuple(row) for row in rows]


@st.composite
def kv_cases(draw):
    items = list(draw(st.dictionaries(small_key, line, min_size=1, max_size=5)).items())
    i = draw(st.integers(0, len(items) - 1))
    key, value = items[i]
    where = draw(st.sampled_from(["none", "key", "value", "duplicate"]))
    if where == "none":
        return items
    if where == "duplicate":
        items.insert(draw(st.integers(0, len(items))), (key, draw(line)))
        return items
    bad = draw(st.sampled_from(BAD_VALUES))
    items[i] = (bad, value) if where == "key" else (key, bad)
    return dict(items) if draw(st.booleans()) else items


def _outcome(build, named):
    """What a constructor stores, as a repr (values and their types), or the
    position its InvariantError names."""
    try:
        return "stores", repr(build())
    except InvariantError as exc:
        return "rejects", named(str(exc))


def _index_named(message):
    return re.match(r"(?:row|document) (\d+)", message).group(1)


@settings(max_examples=1000, deadline=None)
@given(case=st.one_of(corpus_cases().map(lambda c: ("corpus", c)),
                      table_cases().map(lambda c: ("table", c)),
                      kv_cases().map(lambda c: ("kv", c))))
def test_one_bad_value_is_found_as_the_scalar_check_finds_it(case):
    kind, data = case
    if kind == "corpus":
        got = _outcome(lambda: TextCorpus(data).documents, _index_named)
        want = _outcome(lambda: scalar_corpus_documents(data), _index_named)
    elif kind == "table":
        schema, rows = data
        got = _outcome(lambda: table_of_rows(schema, rows).rows, _index_named)
        want = _outcome(lambda: scalar_table_rows(schema, rows), _index_named)
    else:
        keys = [k for k, _ in (data.items() if isinstance(data, dict) else data)]

        def named(message):
            return {repr(k) for k in keys if repr(k) in message}

        got = _outcome(lambda: KeyValueSet(data).entries, named)
        want = _outcome(lambda: scalar_kv_entries(data), named)
    assert got == want


def _numbered(draw, records, first_line, blank=st.just("")):
    """`records` one per line with blank lines drawn between them, and the
    line each record starts on, the first line of the text being `first_line`."""
    text, starts = "", []
    for record in records:
        text += "".join(f"{b}\n" for b in draw(st.lists(blank, max_size=2)))
        starts.append(first_line + text.count("\n"))
        text += f"{record}\n"
    return text, starts


def _csv_record(cells) -> str:
    """One CSV record, with no line terminator after it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()[:-1]


NOT_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def refused_files(draw):
    """(file text, line of the record that holds the one refused value, a
    thunk that builds the payload from the values the file holds) for a
    line-based kind; blank lines fall between the records."""
    kind = draw(st.sampled_from(["corpus", "graph", "kv", "table", "text matrix"]))
    if kind == "corpus":  # every line is a document, blank ones too
        docs = draw(st.lists(st.text("ab ", max_size=3), min_size=1, max_size=6))
        r = draw(st.integers(0, len(docs) - 1))
        docs[r] = draw(st.text("ab", max_size=2)) + "\r" + draw(st.text("ab", max_size=2))
        return "".join(f"{d}\n" for d in docs), r + 1, lambda: TextCorpus(docs)
    if kind == "graph":
        n = draw(st.integers(1, 5))
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              min_size=1, max_size=6))
        r = draw(st.integers(0, len(edges) - 1))
        far = draw(st.integers(-3, -1) | st.integers(n, n + 3))
        edges[r] = (edges[r][0], far) if draw(st.booleans()) else (far, edges[r][1])
        body, starts = _numbered(draw, [f"{u} {v}" for u, v in edges], 2,
                                 st.sampled_from(["", " \t"]))
        return f"#graph v1 {n} 1\n{body}", starts[r], lambda: Graph(n, edges)
    if kind == "kv":
        items = list(draw(st.dictionaries(small_key, st.text("ab ", max_size=3),
                                          min_size=1, max_size=5)).items())
        r = draw(st.integers(0, len(items) - 1))
        key, value = items[r]
        items[r] = (key, value + "\r") if draw(st.booleans()) else ("\r" + key, value)
        body, starts = _numbered(draw, [f"{k}\t{v}" for k, v in items], 2)
        return f"#kv v1\n{body}", starts[r], lambda: KeyValueSet(items)
    if kind == "table":
        kinds = draw(st.lists(st.sampled_from(list(TABLE_KINDS)), max_size=2))
        kinds.insert(draw(st.integers(0, len(kinds))), draw(st.sampled_from(["integer", "real"])))
        schema = [(f"c{j}", k) for j, k in enumerate(kinds)]
        cell = {"integer": st.integers(-2**63, 2**63 - 1), "real": finite,
                "string": st.text('ab ,"\n', max_size=4)}
        rows = [list(row) for row in
                draw(st.lists(st.tuples(*(cell[k] for k in kinds)), min_size=1, max_size=5))]
        r = draw(st.integers(0, len(rows) - 1))
        j = draw(st.sampled_from([j for j, k in enumerate(kinds) if k != "string"]))
        rows[r][j] = draw(st.sampled_from([2**63, -2**63 - 1]) if kinds[j] == "integer"
                          else NOT_FINITE)
        records = [_csv_record(repr(c) if isinstance(c, float) else c for c in row)
                   for row in rows]
        body, starts = _numbered(draw, records, 3)
        schema_line = ",".join(f"{n}:{k}" for n, k in schema)
        return (f"#table v1\n{schema_line}\n{body}", starts[r],
                lambda: table_of_rows(schema, [tuple(row) for row in rows]))
    rows, cols = draw(dims), draw(dims)
    data = draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols))
    i = draw(st.integers(0, len(data) - 1))
    data[i] = draw(NOT_FINITE)
    records = [",".join(map(repr, data[k * cols:(k + 1) * cols])) for k in range(rows)]
    body, starts = _numbered(draw, records, 2)
    return (f"#matrix v1 {rows} {cols} text\n{body}", starts[i // cols],
            lambda: Matrix(rows, cols, data))


def test_a_refused_value_is_named_on_the_line_of_its_record(tmp_path_factory):
    path = tmp_path_factory.mktemp("refused") / "data"

    @settings(max_examples=500, deadline=None)
    @given(case=refused_files())
    def check(case):
        text, line, build = case
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(InvariantError) as built:
            build()
        with pytest.raises(FormatError) as loaded:
            load_dataset(str(path))
        assert loaded.value.line == line
        assert str(loaded.value) == f"{path}:{line}: {built.value}"

    check()


def _cell_literals(table, i):
    """Each cell of column i as a filter literal would spell it."""
    return [repr(row[i]) if isinstance(row[i], float) else str(row[i]) for row in table.rows]


@st.composite
def table_kernel_cases(draw, motif):
    """A table, the registry parameters of `motif` over it, and the arguments
    its row-form reference takes."""
    kinds = ("real", "integer", "string") if motif == "statistic.aggregate" else TABLE_KINDS
    table = draw(tables(tuple(kinds), int_or_finite, draw(st.sampled_from([0, 2, 2, 2]))))
    if motif == "statistic.aggregate":
        # a key column with two values, so that some groups sum three or more cells
        table = table_of_rows([("two keys", "integer"), *table.schema],
                              [(r % 2, *row) for r, row in enumerate(table.rows)])
    names = [n for n, _ in table.schema]
    some_name = st.sampled_from(names * 3 + ["no such column"])
    if motif == "set.project":
        # the registry splits the list on commas and strips each name
        pool = [n for n in names if n == n.strip()] or ["no such column"]
        columns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
        return table, [table], {"columns": ",".join(columns)}, (columns,)
    if motif in ("set.filter", "set.select"):
        column = draw(some_name)
        literals = (_cell_literals(table, names.index(column)) if column in names else []) \
            or ["0"]
        # mostly a cell's spelling; else free text or a literal no cell may hold
        odd = st.text(max_size=4) | st.sampled_from(["nan", "-inf", "1e999", str(2**63)])
        value = draw(odd if draw(st.integers(0, 3)) == 3 else st.sampled_from(literals))
        cmp = draw(st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"]))
        return table, [table], {"column": column, "cmp": cmp, "value": value}, (column, cmp, value)
    if motif == "set.table_union":
        kinds = [k for _, k in table.schema]
        other = draw(st.builds(table_of_rows, st.just(table.schema),
                               table_rows(kinds, int_or_finite))
                     | tables())
        return table, [table, other], {}, (other,)
    if motif == "statistic.aggregate":
        numeric = [n for n, k in table.schema if k == "real"] or ["two keys"]
        group = draw(some_name)
        target = draw(some_name if draw(st.integers(0, 3)) == 3 else st.sampled_from(numeric))
        agg = draw(st.sampled_from(["sum", "avg", "count"]))
        return table, [table], {"group": group, "agg": agg, "target": target}, (group, agg, target)
    if motif == "sort.sort":
        key = draw(st.integers(-1, len(names)))
        return table, [table], {"key": key}, (key,)
    fraction = draw(st.sampled_from([0.5, 0.25, 1.0, 0.0]) | st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**64 - 1))
    return table, [table], {"fraction": fraction, "seed": seed}, (fraction, seed)


ROW_REFERENCES = {
    "set.project": row_project,
    "set.filter": row_filter,
    "set.select": row_filter,
    "set.table_union": row_union,
    "statistic.aggregate": row_aggregate,
    "sort.sort": row_sort,
    "sampling.random_sample": row_sample,
}


def _table_outcome(run):
    """A table result as its schema, rows and checksum, or the error raised."""
    try:
        table = run()
    except (KernelError, InvariantError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return table.schema, table.rows, checksum_payload(table)


@pytest.mark.parametrize("motif", sorted(ROW_REFERENCES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_table_kernel_equals_its_row_form_reference(motif, data):
    table, operands, raw, args = data.draw(table_kernel_cases(motif))
    spec = REGISTRY[motif]
    got = _table_outcome(lambda: spec.fn(*operands, **spec.coerce_params(raw)))
    want = _table_outcome(lambda: ROW_REFERENCES[motif](table, *args))
    assert got == want


SPEC_TEXTS = [read_input(shipped_spec_path(name)) for name in SHIPPED_SPECS]


@st.composite
def mutated_specs(draw):
    text = draw(st.sampled_from(SPEC_TEXTS))
    pieces = st.text(max_size=4) | st.sampled_from(
        ["(", ")", ",", "=", '"', "@", "node ", "input ", "output ", "generate.", "1e999",
         "-", "x", "\n", "#"])
    for _ in range(draw(st.integers(1, 5))):
        at = draw(st.integers(0, len(text)))
        span = draw(st.integers(0, 6))
        text = text[:at] + draw(pieces) + text[at + span:]
    return text


@settings(max_examples=600, deadline=None)
@given(text=mutated_specs())
def test_parse_of_mutated_specs_raises_only_spec_error(text):
    try:
        parse_spec(text)
    except SpecError:
        pass
