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
UTF-8 strings, kv entries sorted by key. Provenance never enters the digest,
so payload-equal datasets always hash equal.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import os
import struct

from .datasets import (
    Dataset,
    EXTERNAL,
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

_HEADER_PREFIXES = ("#table v1", "#matrix v1", "#tensor v1", "#graph v1", "#kv v1")


def _enc_str(out: io.BytesIO, s: str):
    raw = s.encode("utf-8")
    out.write(_U64.pack(len(raw)))
    out.write(raw)


# Values per struct.pack call: large enough to amortize the call, small enough
# that the argument tuple and packed chunk stay far below the payload's size.
_PACK_CHUNK = 8192


def _write_packed(out: io.BytesIO, code: str, values):
    """Write numbers as little-endian struct `code` items, in bounded chunks."""
    it = iter(values)
    while chunk := tuple(itertools.islice(it, _PACK_CHUNK)):
        out.write(struct.pack(f"<{len(chunk)}{code}", *chunk))


def canonical_bytes(payload: Payload) -> bytes:
    """Platform-independent byte encoding of a payload; basis for checksums
    and for the byte-size accounting in run reports."""
    out = io.BytesIO()
    if isinstance(payload, TextCorpus):
        out.write(b"text\x00")
        out.write(_U64.pack(len(payload.documents)))
        for line in payload.documents:
            _enc_str(out, line)
    elif isinstance(payload, Table):
        out.write(b"tabl\x00")
        out.write(_U64.pack(len(payload.schema)))
        for name, kind in payload.schema:
            _enc_str(out, name)
            _enc_str(out, kind)
        out.write(_U64.pack(len(payload.rows)))
        kinds = [k for _, k in payload.schema]
        for row in payload.rows:
            for kind, value in zip(kinds, row):
                if kind == "integer":
                    out.write(_I64.pack(value))
                elif kind == "real":
                    out.write(_F64.pack(value))
                else:
                    _enc_str(out, value)
    elif isinstance(payload, Matrix):
        out.write(b"matr\x00")
        out.write(_U64.pack(payload.rows))
        out.write(_U64.pack(payload.cols))
        _write_packed(out, "d", payload.data)
    elif isinstance(payload, Tensor):
        out.write(b"tens\x00")
        out.write(_U64.pack(len(payload.shape)))
        _write_packed(out, "Q", payload.shape)
        _write_packed(out, "d", payload.data)
    elif isinstance(payload, Graph):
        out.write(b"grph\x00")
        out.write(_U64.pack(payload.vertex_count))
        out.write(b"\x01" if payload.directed else b"\x00")
        out.write(_U64.pack(len(payload.edges)))
        _write_packed(out, "Q", itertools.chain.from_iterable(payload.edges))
    elif isinstance(payload, KeyValueSet):
        out.write(b"kvst\x00")
        items = sorted(payload.entries.items())
        out.write(_U64.pack(len(items)))
        for key, value in items:
            _enc_str(out, key)
            _enc_str(out, value)
    else:
        raise InvariantError(f"not a dataset payload: {type(payload).__name__}")
    return out.getvalue()


def payload_size(payload: Payload) -> int:
    return len(canonical_bytes(payload))


def checksum_payload(payload: Payload) -> int:
    digest = hashlib.sha256(canonical_bytes(payload)).digest()
    return int.from_bytes(digest[:8], "big")


def checksum_hex(value: int) -> str:
    return f"{value:016x}"


# ---------------------------------------------------------------------------
# save


def _format_real(v: float) -> str:
    # repr round-trips binary64 exactly through float()
    return repr(v)


def save_dataset(d: Dataset, path: str, text_matrix: bool = False):
    """Write a dataset file; load_dataset(path) reconstructs the same payload.

    text_matrix selects the CSV body for matrices (the CLI --text flag);
    everything else has a single canonical form.
    """
    payload = d.payload
    if isinstance(payload, TextCorpus):
        if payload.documents and payload.documents[0].startswith(_HEADER_PREFIXES):
            raise InvariantError(
                "text corpus first line collides with a reserved format header; "
                "it would not load back as a corpus"
            )
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for line in payload.documents:
                fh.write(line)
                fh.write("\n")
    elif isinstance(payload, Table):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("#table v1\n")
            fh.write(",".join(f"{n}:{k}" for n, k in payload.schema) + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            kinds = [k for _, k in payload.schema]
            for row in payload.rows:
                writer.writerow(
                    [_format_real(v) if k == "real" else str(v) for k, v in zip(kinds, row)]
                )
    elif isinstance(payload, Matrix):
        if text_matrix:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(f"#matrix v1 {payload.rows} {payload.cols} text\n")
                for i in range(payload.rows):
                    fh.write(",".join(_format_real(v) for v in payload.row(i)) + "\n")
        else:
            with open(path, "wb") as fh:
                fh.write(f"#matrix v1 {payload.rows} {payload.cols}\n".encode("ascii"))
                fh.write(struct.pack(f"<{len(payload.data)}d", *payload.data))
    elif isinstance(payload, Tensor):
        with open(path, "wb") as fh:
            dims = " ".join(str(v) for v in payload.shape)
            fh.write(f"#tensor v1 {dims}\n".encode("ascii"))
            fh.write(struct.pack(f"<{len(payload.data)}d", *payload.data))
    elif isinstance(payload, Graph):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"#graph v1 {payload.vertex_count} {1 if payload.directed else 0}\n")
            for u, v in payload.edges:
                fh.write(f"{u} {v}\n")
    elif isinstance(payload, KeyValueSet):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("#kv v1\n")
            for key, value in sorted(payload.entries.items()):
                fh.write(f"{key}\t{value}\n")
    else:
        raise InvariantError(f"not a dataset payload: {type(payload).__name__}")


# ---------------------------------------------------------------------------
# load


def _wrap_invariant(path, line, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InvariantError as exc:
        raise FormatError(str(exc), path=path, line=line) from None


def _load_table(path: str, text: str) -> Table:
    lines = text.split("\n")
    if len(lines) < 2:
        raise FormatError("table file missing schema line", path=path, line=2)
    schema = []
    for part in lines[1].split(","):
        if part == "":
            continue
        if ":" not in part:
            raise FormatError(f"bad schema entry {part!r}", path=path, line=2)
        name, _, kind = part.rpartition(":")
        schema.append((name, kind))
    if not schema:
        raise FormatError("empty table schema", path=path, line=2)
    body = "\n".join(lines[2:])
    rows = []
    kinds = [k for _, k in schema]
    for offset, record in enumerate(csv.reader(io.StringIO(body))):
        if not record:
            continue
        lineno = offset + 3
        if len(record) != len(schema):
            raise FormatError(
                f"row arity {len(record)} != schema arity {len(schema)}",
                path=path,
                line=lineno,
            )
        row = []
        for kind, cell in zip(kinds, record):
            try:
                if kind == "integer":
                    row.append(int(cell))
                elif kind == "real":
                    row.append(float(cell))
                else:
                    row.append(cell)
            except ValueError:
                raise FormatError(
                    f"cell {cell!r} is not a valid {kind}", path=path, line=lineno
                ) from None
        rows.append(tuple(row))
    return _wrap_invariant(path, None, Table, schema, rows)


def _read_doubles(path: str, blob: bytes, count: int, what: str) -> tuple[float, ...]:
    want = count * 8
    if len(blob) != want:
        raise FormatError(
            f"{what} body has {len(blob)} bytes, expected {want}", path=path
        )
    values = struct.unpack(f"<{count}d", blob)
    for v in values:
        if not math.isfinite(v):
            raise FormatError(f"{what} contains non-finite value {v!r}", path=path)
    return values


def _load_matrix(path: str, header: str, rest: bytes) -> Matrix:
    fields = header.split()
    text_mode = len(fields) == 5 and fields[4] == "text"
    if len(fields) != 4 and not text_mode:
        raise FormatError(f"malformed matrix header {header!r}", path=path, line=1)
    try:
        rows, cols = int(fields[2]), int(fields[3])
    except ValueError:
        raise FormatError(f"malformed matrix header {header!r}", path=path, line=1) from None
    if text_mode:
        data = []
        text = rest.decode("utf-8")
        for i, line in enumerate(text.split("\n")):
            if line == "":
                continue
            cells = line.split(",")
            if len(cells) != cols:
                raise FormatError(
                    f"matrix row has {len(cells)} cells, expected {cols}",
                    path=path,
                    line=i + 2,
                )
            try:
                data.extend(float(c) for c in cells)
            except ValueError:
                raise FormatError("matrix cell is not a number", path=path, line=i + 2) from None
        return _wrap_invariant(path, None, Matrix, rows, cols, data)
    if rows <= 0 or cols <= 0:
        raise FormatError(f"bad matrix dimensions {rows}x{cols}", path=path, line=1)
    values = _read_doubles(path, rest, rows * cols, "matrix")
    return _wrap_invariant(path, None, Matrix, rows, cols, values)


def _load_tensor(path: str, header: str, rest: bytes) -> Tensor:
    fields = header.split()
    try:
        dims = [int(f) for f in fields[2:]]
    except ValueError:
        raise FormatError(f"malformed tensor header {header!r}", path=path, line=1) from None
    if not dims or any(d <= 0 for d in dims):
        raise FormatError(f"bad tensor shape {dims}", path=path, line=1)
    size = 1
    for d in dims:
        size *= d
    values = _read_doubles(path, rest, size, "tensor")
    return _wrap_invariant(path, None, Tensor, dims, values)


def _load_graph(path: str, header: str, rest: bytes) -> Graph:
    fields = header.split()
    if len(fields) != 4 or fields[3] not in ("0", "1"):
        raise FormatError(f"malformed graph header {header!r}", path=path, line=1)
    try:
        vertex_count = int(fields[2])
    except ValueError:
        raise FormatError(f"malformed graph header {header!r}", path=path, line=1) from None
    edges = []
    for i, line in enumerate(rest.decode("utf-8").split("\n")):
        if line.strip() == "":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {line!r}", path=path, line=i + 2)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"bad edge line {line!r}", path=path, line=i + 2) from None
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise FormatError(
                f"endpoint out of range: ({u}, {v}) with vertex_count {vertex_count}",
                path=path,
                line=i + 2,
            )
        edges.append((u, v))
    return _wrap_invariant(path, None, Graph, vertex_count, edges, fields[3] == "1")


def _load_kv(path: str, rest: bytes) -> KeyValueSet:
    entries = []
    seen = set()
    for i, line in enumerate(rest.decode("utf-8").split("\n")):
        if line == "":
            continue
        if "\t" not in line:
            raise FormatError(f"kv line missing tab separator: {line!r}", path=path, line=i + 2)
        key, _, value = line.partition("\t")
        if key in seen:
            raise FormatError(f"duplicate key {key!r}", path=path, line=i + 2)
        seen.add(key)
        entries.append((key, value))
    return _wrap_invariant(path, None, KeyValueSet, entries)


def load_dataset(path: str) -> Dataset:
    """Read any recognized dataset file; files without a reserved header are
    text corpora. Loaded datasets carry 'external' provenance."""
    if not os.path.exists(path):
        raise FormatError("no such file", path=path)
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.find(b"\n")
    first = blob[: newline if newline >= 0 else len(blob)]
    try:
        header = first.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("first line is not valid UTF-8", path=path, line=1) from None
    rest = blob[newline + 1 :] if newline >= 0 else b""

    if header.startswith("#table v1"):
        payload: Payload = _load_table(path, blob.decode("utf-8"))
    elif header.startswith("#matrix v1"):
        payload = _load_matrix(path, header, rest)
    elif header.startswith("#tensor v1"):
        payload = _load_tensor(path, header, rest)
    elif header.startswith("#graph v1"):
        payload = _load_graph(path, header, rest)
    elif header.startswith("#kv v1"):
        payload = _load_kv(path, rest)
    elif header.startswith("#") and " v1" in header[:12]:
        raise FormatError(f"unknown format header {header!r}", path=path, line=1)
    else:
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"corpus is not valid UTF-8: {exc}", path=path) from None
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        payload = _wrap_invariant(path, None, TextCorpus, lines)
    return Dataset(payload, EXTERNAL)
