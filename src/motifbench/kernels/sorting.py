"""Sort-family kernels."""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from ..datasets import Matrix, Table, TextCorpus
from ..errors import KernelError


def sort_records(data, key: int):
    """Stable non-decreasing sort of a corpus's lines, a table's rows, or a
    matrix's rows.

    key selects the table/matrix column to order by; corpora order by the
    whole line and accept only key 0.
    """
    if isinstance(data, TextCorpus):
        if key != 0:
            raise KernelError(f"key {key} out of range for a text corpus (only 0)")
        return TextCorpus(sorted(data.documents))
    if isinstance(data, Table):
        if not 0 <= key < len(data.schema):
            raise KernelError(f"key {key} out of range for table with {len(data.schema)} columns")
        order = sorted(range(len(data)), key=data.columns[key].__getitem__)
        if len(order) < 2:  # nothing to move, and itemgetter returns a tuple only for two or more
            return data
        return Table(data.schema, map(itemgetter(*order), data.columns))
    # a Matrix, the one kind left that the registry lets through
    if not 0 <= key < data.cols:
        raise KernelError(f"key {key} out of range for matrix with {data.cols} columns")
    rows = sorted(zip(*[iter(data.data)] * data.cols), key=itemgetter(key))
    return Matrix(data.rows, data.cols, chain.from_iterable(rows))
