"""Dataset files and checksums.

File formats (all headers are ASCII, one per file):

    text corpus   plain UTF-8, one document per line, LF terminators, no header
    table         '#table v1' / schema line 'name:kind,name:kind,...' / RFC-4180 CSV rows
    matrix        '#matrix v1 <rows> <cols>' then binary64 row-major values;
                  text variant '#matrix v1 <rows> <cols> text' with CSV rows
    tensor        '#tensor v1 <d0> <d1> ...' then binary64 row-major values
    graph         '#graph v1 <vertex_count> <directed:0|1>' then 'src tgt' lines
    key-value     '#kv v1' then 'key<TAB>value' lines

Checksums are the first 64 bits of SHA-256 over a canonical byte encoding of
the payload: little-endian unsigned 64-bit counts, IEEE-754 binary64 values,
UTF-8 strings, kv entries sorted by key, so payload-equal datasets always
hash equal.

Every file the toolkit reads goes through read_input, and every file it
writes through open_output except the one-row metrics append.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import os
import struct
import sys
from array import array
from operator import itemgetter

from .datasets import (
    TABLE_KINDS,
    Dataset,
    Graph,
    KeyValueSet,
    Matrix,
    Payload,
    Table,
    Tensor,
    TextCorpus,
    kind_of,
)
from .errors import FormatError, InvariantError

_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def _is_header(line: str) -> bool:
    """Whether a first line reads as a format header, known or not."""
    return line.startswith("#") and " v1" in line[:12]


def _prefixed(strings):
    """Each string's 8-byte length followed by its UTF-8 bytes, one bytes
    object per string, made only as each is taken: a list of them would
    hold a second copy of every string while the stream grows."""
    return (_U64.pack(len(raw)) + raw for raw in map(str.encode, strings))


def _packed(code: str, values) -> array:
    """An array whose bytes are `values` as little-endian `code` items; it is
    written as it is, with no copy to bytes."""
    items = array(code, values)
    if sys.byteorder == "big":
        items.byteswap()
    return items


def canonical_bytes(payload: Payload) -> bytes:
    """Platform-independent byte encoding of a payload; basis for checksums
    and for the byte-size accounting in run reports."""
    out = io.BytesIO()
    if isinstance(payload, TextCorpus):
        out.write(b"text\x00")
        out.write(_U64.pack(len(payload.documents)))
        out.writelines(_prefixed(payload.documents))
    elif isinstance(payload, Table):
        out.write(b"tabl\x00")
        out.write(_U64.pack(len(payload.schema)))
        out.writelines(_prefixed(itertools.chain.from_iterable(payload.schema)))
        out.write(_U64.pack(len(payload)))
        out.write(_table_body([k for _, k in payload.schema], payload.columns))
    elif isinstance(payload, Matrix):
        out.write(b"matr\x00")
        out.write(_U64.pack(payload.rows))
        out.write(_U64.pack(payload.cols))
        out.write(_packed("d", payload.data))
    elif isinstance(payload, Tensor):
        out.write(b"tens\x00")
        out.write(_U64.pack(len(payload.shape)))
        out.write(_packed("Q", payload.shape))
        out.write(_packed("d", payload.data))
    elif isinstance(payload, Graph):
        out.write(b"grph\x00")
        out.write(_U64.pack(payload.vertex_count))
        out.write(b"\x01" if payload.directed else b"\x00")
        out.write(_U64.pack(len(payload.edges)))
        out.write(_packed("Q", itertools.chain.from_iterable(payload.edges)))
    elif isinstance(payload, KeyValueSet):
        out.write(b"kvst\x00")
        items = sorted(payload.entries.items())
        out.write(_U64.pack(len(items)))
        out.writelines(_prefixed(itertools.chain.from_iterable(items)))
    else:
        raise InvariantError(f"not a dataset payload: {type(payload).__name__}")
    return out.getvalue()


def _table_body(kinds: list[str], columns: tuple) -> bytes:
    """The row-major body of a table, encoded a column at a time and put in
    place by one strided assignment per column: with no string column, one
    packed array per column into a word array; otherwise one bytes object
    per cell."""
    n, k = len(columns[0]), len(kinds)
    if "string" not in kinds:
        words = array("Q", bytes(8 * n * k))
        for j, (kind, col) in enumerate(zip(kinds, columns)):
            words[j::k] = array("Q", _packed("q" if kind == "integer" else "d", col).tobytes())
        return words.tobytes()
    cells = [b""] * (n * k)
    for j, (kind, col) in enumerate(zip(kinds, columns)):
        if kind == "string":
            cells[j::k] = _prefixed(col)
        else:
            cells[j::k] = map((_I64 if kind == "integer" else _F64).pack, col)
    return b"".join(cells)


def _utf8_len(strings) -> int:
    return len("".join(strings).encode("utf-8"))


def payload_size(payload: Payload) -> int:
    """len(canonical_bytes(payload)), worked out from the payload's shape:
    the fixed header, 8 bytes per count and per number, and each string's
    8-byte length prefix plus its UTF-8 bytes. No body is encoded, except
    the strings, which are joined and encoded once per column."""
    if isinstance(payload, TextCorpus):
        docs = payload.documents
        return 13 + 8 * len(docs) + _utf8_len(docs)
    if isinstance(payload, Table):
        schema = payload.schema
        size = 21 + 16 * len(schema) + _utf8_len(itertools.chain.from_iterable(schema))
        size += 8 * len(schema) * len(payload)
        return size + sum(_utf8_len(col) for (_, kind), col in zip(schema, payload.columns)
                          if kind == "string")
    if isinstance(payload, Matrix):
        return 21 + 8 * len(payload.data)
    if isinstance(payload, Tensor):
        return 13 + 8 * len(payload.shape) + 8 * len(payload.data)
    if isinstance(payload, Graph):
        return 22 + 16 * len(payload.edges)
    if isinstance(payload, KeyValueSet):
        entries = payload.entries
        return 13 + 16 * len(entries) + _utf8_len(entries) + _utf8_len(entries.values())
    raise InvariantError(f"not a dataset payload: {type(payload).__name__}")


def checksum_payload(payload: Payload) -> int:
    digest = hashlib.sha256(canonical_bytes(payload)).digest()
    return int.from_bytes(digest[:8], "big")


def checksum_hex(value: int) -> str:
    return f"{value:016x}"


# ---------------------------------------------------------------------------
# save


@contextlib.contextmanager
def open_output(path: str, binary: bool = False):
    """Open `path` for writing so that it only ever holds a complete file.

    Creates the parent directory, writes to a temporary file beside `path`
    (UTF-8 with untranslated newlines unless `binary`) and moves it onto
    `path` when the block succeeds. On any exception the temporary file is
    removed and `path` keeps its old content, or stays absent.
    """
    parent, name = os.path.split(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    # A prefix of the name keeps the temporary name within NAME_MAX (255
    # bytes) even when `path` itself is close to it.
    tmp = os.path.join(parent, f".{name[:48]}.{os.getpid()}.tmp")
    # A plain open, so the file gets the usual mode under the umask.
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_dataset(payload: Payload, path: str, text_matrix: bool = False):
    """Write a payload's dataset file; load_dataset(path) reconstructs it.

    text_matrix selects the CSV body for matrices (the CLI --text flag);
    everything else has a single canonical form.
    """
    kind = kind_of(payload)  # refuses a foreign object before any file is made
    documents = payload.documents if isinstance(payload, TextCorpus) else ()
    if documents and _is_header(documents[0]):
        raise InvariantError(
            "text corpus first line reads as a format header; "
            "it would not load back as a corpus"
        )
    binary = isinstance(payload, Tensor) or (isinstance(payload, Matrix) and not text_matrix)
    with open_output(path, binary=binary) as fh:
        if isinstance(payload, TextCorpus):
            for line in payload.documents:
                fh.write(line)
                fh.write("\n")
        elif isinstance(payload, Table):
            fh.write("#table v1\n")
            fh.write(",".join(f"{n}:{k}" for n, k in payload.schema) + "\n")
            # csv quotes a field only for the characters of its line terminator,
            # but a bare CR in a string cell would read back as a line break
            has_cr = any(k == "string" and "\r" in "".join(col)
                         for (_, k), col in zip(payload.schema, payload.columns))
            quoting = csv.QUOTE_ALL if has_cr else csv.QUOTE_MINIMAL
            writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
            # csv writes a float as its repr, which float() reads back exactly
            writer.writerows(zip(*payload.columns))
        elif binary:
            dims = (payload.rows, payload.cols) if isinstance(payload, Matrix) else payload.shape
            fh.write(f"#{kind} v1 {' '.join(map(str, dims))}\n".encode("ascii"))
            fh.write(_packed("d", payload.data))
        elif isinstance(payload, Matrix):
            fh.write(f"#matrix v1 {payload.rows} {payload.cols} text\n")
            for i in range(payload.rows):
                fh.write(",".join(map(repr, payload.row(i))) + "\n")
        elif isinstance(payload, Graph):
            fh.write(f"#graph v1 {payload.vertex_count} {1 if payload.directed else 0}\n")
            for u, v in payload.edges:
                fh.write(f"{u} {v}\n")
        else:
            fh.write("#kv v1\n")
            for key, value in sorted(payload.entries.items()):
                fh.write(f"{key}\t{value}\n")


# ---------------------------------------------------------------------------
# load


def _decode(blob: bytes, path: str, line: int = 1) -> str:
    """UTF-8 text of `blob`, whose first line is line `line` of `path`."""
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += blob.count(b"\n", 0, exc.start)
        raise FormatError(f"not valid UTF-8 ({exc.reason})", path=path, line=line) from None


def read_input(path: str, binary: bool = False):
    """Return the bytes of `path`, or unless `binary` its UTF-8 text with
    newlines untranslated. A file that cannot be read or decoded raises
    FormatError naming the path (and for bad bytes, their line)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(exc.strerror, path=path) from None
    return blob if binary else _decode(blob, path)


def resolve_path(path: str, base_dir: str | None) -> str:
    """`path` taken relative to `base_dir` (a spec file's directory) unless
    it is absolute or there is no base."""
    if base_dir is not None and not os.path.isabs(path):
        return os.path.join(base_dir, path)
    return path


def csv_records(text, path: str, line: int = 1):
    """Yield (line number, record) for each record of CSV `text`, a string
    or an iterable of lines (pulled only as far as the records taken need),
    whose first line is line `line` of `path`; a quoted field may span lines,
    so a record's number is that of its first line. A record the csv module
    cannot parse raises FormatError."""
    reader = csv.reader(io.StringIO(text) if isinstance(text, str) else text)
    first = line
    try:
        for record in reader:
            yield first, record
            first = line + reader.line_num
    except csv.Error as exc:
        line += reader.line_num - 1
        raise FormatError(f"bad CSV record ({exc})", path=path, line=line) from None


def write_csv_record(fh, record):
    """Write one CSV record of str, int and float fields (a float as its repr),
    the form csv_records reads back. csv quotes only for its line terminator,
    but a bare CR would read back as a line break: a string holding one has
    every field quoted, as save_dataset quotes a table's cells."""
    has_cr = "\r" in "".join([field for field in record if type(field) is str])
    quoting = csv.QUOTE_ALL if has_cr else csv.QUOTE_MINIMAL
    csv.writer(fh, lineterminator="\n", quoting=quoting).writerow(record)


def write_csv(path: str, header, rows):
    """Write the header and then each row as a CSV file, by write_csv_record."""
    with open_output(path) as fh:
        write_csv_record(fh, header)
        for row in rows:
            write_csv_record(fh, row)


def _wrap_invariant(path: str, line_of, fn, *args):
    """fn(*args), with the InvariantError it may raise raised as a FormatError
    naming `path` and a line: `line_of` itself, a number or None, or when it
    is a line map, the line it maps the index of the refused value to."""
    try:
        return fn(*args)
    except InvariantError as exc:
        if callable(line_of):
            line_of = None if exc.index is None else line_of(exc.index)
        raise FormatError(str(exc), path=path, line=line_of) from None


def _load_table(path: str, text: str) -> Table:
    lines = text.split("\n")
    if len(lines) < 2:
        raise FormatError("table file missing schema line", path=path, line=2)
    schema = []
    for part in lines[1].split(","):
        if ":" not in part:
            raise FormatError(f"bad schema entry {part!r}", path=path, line=2)
        name, _, kind = part.rpartition(":")
        schema.append((name, kind))
    _wrap_invariant(path, 2, Table, schema, [()] * len(schema))  # the schema, on its line
    columns = [[] for _ in schema]
    parsers = [(kind, TABLE_KINDS[kind].parse, col.append)
               for (_, kind), col in zip(schema, columns)]
    row_lines = []
    for lineno, record in csv_records("\n".join(lines[2:]), path, 3):
        if not record:
            continue
        if len(record) != len(schema):
            raise FormatError(
                f"row arity {len(record)} != schema arity {len(schema)}",
                path=path,
                line=lineno,
            )
        for (kind, parse, append), cell in zip(parsers, record):
            try:
                append(parse(cell))
            except ValueError:
                raise FormatError(
                    f"cell {cell!r} is not a valid {kind}", path=path, line=lineno
                ) from None
        row_lines.append(lineno)
    return _wrap_invariant(path, row_lines.__getitem__, Table, schema, columns)


def _read_doubles(path: str, blob: bytes, count: int, what: str) -> tuple[float, ...]:
    want = count * 8
    if len(blob) != want:
        raise FormatError(
            f"{what} body has {len(blob)} bytes, expected {want}", path=path
        )
    return struct.unpack(f"<{count}d", blob)


def _header_ints(path: str, header: str, kind: str, fields: list[str],
                 well_formed: bool = True) -> list[int]:
    """`fields` of a header line as integers; a field that is not one, or a
    header that is not `well_formed`, makes the header malformed."""
    if well_formed:
        try:
            return [int(f) for f in fields]
        except ValueError:
            pass
    raise FormatError(f"malformed {kind} header {header!r}", path=path, line=1)


def _body_lines(path: str, rest: bytes):
    """(line number, line) for each non-empty line of `rest`, the text that
    follows a file's header line."""
    return filter(itemgetter(1), enumerate(_decode(rest, path, 2).split("\n"), 2))


def _load_matrix(path: str, header: str, rest: bytes) -> Matrix:
    fields = header.split()
    text_mode = fields[4:] == ["text"]
    rows, cols = _header_ints(path, header, "matrix", fields[2:4], len(fields) == 4 or text_mode)
    if text_mode:
        data, row_lines = [], []
        for lineno, line in _body_lines(path, rest):
            cells = line.split(",")
            if len(cells) != cols:
                raise FormatError(
                    f"matrix row has {len(cells)} cells, expected {cols}", path=path, line=lineno
                )
            try:
                data.extend(map(float, cells))
            except ValueError:
                raise FormatError("matrix cell is not a number", path=path, line=lineno) from None
            row_lines.append(lineno)
        return _wrap_invariant(path, lambda i: row_lines[i // cols], Matrix, rows, cols, data)
    if rows <= 0 or cols <= 0:
        raise FormatError(f"bad matrix dimensions {rows}x{cols}", path=path, line=1)
    values = _read_doubles(path, rest, rows * cols, "matrix")
    return _wrap_invariant(path, None, Matrix, rows, cols, values)


def _load_tensor(path: str, header: str, rest: bytes) -> Tensor:
    dims = _header_ints(path, header, "tensor", header.split()[2:])
    if not dims or any(d <= 0 for d in dims):
        raise FormatError(f"bad tensor shape {dims}", path=path, line=1)
    values = _read_doubles(path, rest, math.prod(dims), "tensor")
    return _wrap_invariant(path, None, Tensor, dims, values)


def _load_graph(path: str, header: str, rest: bytes) -> Graph:
    fields = header.split()
    vertex_count, directed = _header_ints(path, header, "graph", fields[2:],
                                          len(fields) == 4 and fields[3] in ("0", "1"))
    _wrap_invariant(path, 1, Graph, vertex_count, ())  # the header's count, on its line
    edges, edge_lines = [], []
    for lineno, line in _body_lines(path, rest):
        parts = line.split()
        if not parts:
            continue
        try:
            u, v = parts
            edges.append((int(u), int(v)))
        except ValueError:
            raise FormatError(f"bad edge line {line!r}", path=path, line=lineno) from None
        edge_lines.append(lineno)
    return _wrap_invariant(path, edge_lines.__getitem__, Graph, vertex_count, edges, directed)


def _load_kv(path: str, rest: bytes) -> KeyValueSet:
    entries, entry_lines = {}, []
    for lineno, line in _body_lines(path, rest):
        if "\t" not in line:
            raise FormatError(f"kv line missing tab separator: {line!r}", path=path, line=lineno)
        key, _, value = line.partition("\t")
        if key in entries:
            raise FormatError(f"duplicate key {key!r}", path=path, line=lineno)
        entries[key] = value
        entry_lines.append(lineno)
    return _wrap_invariant(path, entry_lines.__getitem__, KeyValueSet, entries)


def load_dataset(path: str) -> Dataset:
    """Read any recognized dataset file; files without a reserved header are
    text corpora."""
    blob = read_input(path, binary=True)
    first, _, rest = blob.partition(b"\n")
    header = _decode(first, path)

    if header.startswith("#table v1"):
        payload: Payload = _load_table(path, _decode(blob, path))
    elif header.startswith("#matrix v1"):
        payload = _load_matrix(path, header, rest)
    elif header.startswith("#tensor v1"):
        payload = _load_tensor(path, header, rest)
    elif header.startswith("#graph v1"):
        payload = _load_graph(path, header, rest)
    elif header.startswith("#kv v1"):
        payload = _load_kv(path, rest)
    elif _is_header(header):
        raise FormatError(f"unknown format header {header!r}", path=path, line=1)
    else:
        lines = _decode(blob, path).split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        payload = _wrap_invariant(path, lambda i: i + 1, TextCorpus, lines)
    return Dataset(payload)
