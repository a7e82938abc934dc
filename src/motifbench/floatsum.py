"""Float sums with the same bits on every supported Python.

CPython 3.12 made the builtin sum() of floats compensated (Neumaier
summation), so sum() rounds differently there than on 3.10 and 3.11, and a
result that feeds a checksum would change with the interpreter. left_sum
adds left to right from 0 with one rounding per add, as sum() did through
3.11, on every version.
"""

from __future__ import annotations

import operator
from functools import reduce


def left_sum(values):
    """((0 + v0) + v1) + ... over an iterable of numbers."""
    return reduce(operator.add, values, 0)
