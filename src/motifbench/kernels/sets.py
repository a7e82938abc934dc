"""Set-family kernels: substring search over corpora, key-value set algebra,
and the relational operators (which this catalog files under set computation).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import add, eq, ge, gt, le, lt, ne

from ..datasets import TABLE_KINDS, KeyValueSet, Table, TextCorpus
from ..errors import KernelError

_COMPARATORS = {"lt": lt, "le": le, "gt": gt, "ge": ge, "eq": eq, "ne": ne}


def grep(corpus: TextCorpus, pattern: str) -> TextCorpus:
    """Lines containing the literal substring, original order preserved."""
    return TextCorpus([line for line in corpus.documents if pattern in line])


def set_op(a: KeyValueSet, b: KeyValueSet, op: str) -> KeyValueSet:
    """union | intersect | difference over key sets; on union collisions the
    value from a wins, intersect and difference keep a's values."""
    if op == "union":
        merged = dict(b.entries)
        merged.update(a.entries)
        return KeyValueSet(merged)
    if op == "intersect":
        return KeyValueSet({k: v for k, v in a.entries.items() if k in b.entries})
    return KeyValueSet({k: v for k, v in a.entries.items() if k not in b.entries})


def column_index(t: Table, name: str) -> int:
    """Position of the named column of `t`; raises KernelError if none."""
    for i, (n, _) in enumerate(t.schema):
        if n == name:
            return i
    raise KernelError(f"unknown column {name!r}")


def project(t: Table, columns: list[str]) -> Table:
    """Keep only the named columns, in the order given."""
    idx = [column_index(t, c) for c in columns]
    return Table([t.schema[i] for i in idx], [t.columns[i] for i in idx])


def filter_rows(t: Table, column: str, cmp: str, value) -> Table:
    """Rows whose cell in `column` satisfies `cmp` against the literal;
    surviving row order preserved. `select` is this same operator."""
    i = column_index(t, column)
    kind = t.schema[i][1]
    rule = TABLE_KINDS[kind]
    try:  # held to its column's rule, as each cell is; InvariantError is a ValueError
        (lit,) = rule.check((rule.parse(value),), lambda _: "literal")
    except ValueError:
        raise KernelError(f"literal {value!r} is not a valid {kind}") from None
    keep = list(map(_COMPARATORS[cmp], t.columns[i], repeat(lit)))
    return Table(t.schema, [compress(col, keep) for col in t.columns])


def table_union(a: Table, b: Table) -> Table:
    """Bag-semantics union: concatenation; schemas must match exactly."""
    if a.schema != b.schema:
        raise KernelError(f"schema mismatch on union: {a.schema} vs {b.schema}")
    return Table(a.schema, map(add, a.columns, b.columns))
