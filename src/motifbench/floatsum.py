"""Float sums with the same bits on every supported Python.

CPython 3.12 made the builtin sum() of floats compensated (Neumaier
summation), so sum() rounds differently there than on 3.10 and 3.11, and a
result that feeds a checksum would change with the interpreter. left_sum
adds left to right from 0 with one rounding per add on every version:
through 3.11 it is the builtin sum(), which is exactly that fold run in C;
from 3.12 it is reduce(operator.add, values, 0). Convolution, matrix
multiply (one fold per output over a gathered b column), avg-pooling,
PageRank, the RMAT generator and the top-down tree add their floats
through it.
"""

from __future__ import annotations

import operator
import sys
from functools import reduce


def _reduce_sum(values):
    """((0 + v0) + v1) + ... over an iterable of numbers."""
    return reduce(operator.add, values, 0)


left_sum = sum if sys.version_info < (3, 12) else _reduce_sum
