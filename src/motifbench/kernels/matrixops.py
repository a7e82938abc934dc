"""Matrix-family kernels: multiplication, elementwise combination and the
dense layer. The sigmoid/tanh activations this catalog tags as matrix work
are logic.elementwise_activation partials, registered under the matrix
family in the kernel registry.
"""

from __future__ import annotations

import math
from operator import add, mul, sub

from ..datasets import Matrix, Tensor
from ..errors import KernelError
from ..floatsum import left_sum


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """c[i][j] = sum_k a[i][k] * b[k][j]."""
    if a.cols != b.rows:
        raise KernelError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    n, k, m = a.rows, a.cols, b.cols
    # Gather each b column once; each output folds its row-by-column products
    # from 0 in k order, as the triple loop adds them.
    bcols = [b.data[j::m] for j in range(m)]
    out = []
    for i in range(n):
        arow = a.data[i * k : (i + 1) * k]
        out += [left_sum(map(mul, arow, bcol)) for bcol in bcols]
    return Matrix(n, m, out)


_ELEMENTWISE = {"add": add, "subtract": sub, "hadamard": mul}


def mat_elementwise(a: Matrix, b: Matrix, op: str) -> Matrix:
    """Pointwise add | subtract | hadamard over identically shaped matrices."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise KernelError(
            f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
        )
    return Matrix(a.rows, a.cols, map(_ELEMENTWISE[op], a.data, b.data))


def fully_connected(x: Tensor, w: Matrix, bias: Tensor) -> Tensor:
    """y = x @ w + bias with bias broadcast over the batch.

    x is [batch, ...features]; trailing dimensions are flattened to the layer
    input width, so a pooled conv volume feeds the dense head directly.
    """
    batch, feat = x.shape[0], math.prod(x.shape[1:])
    if feat != w.rows:
        raise KernelError(
            f"input features {feat} (shape {x.shape}) != weight rows {w.rows}"
        )
    if bias.rank != 1 or bias.shape[0] != w.cols:
        raise KernelError(
            f"bias shape {bias.shape} != weight output width ({w.cols},)"
        )
    wcols = [w.data[o :: w.cols] for o in range(w.cols)]
    out = []
    for b in range(batch):
        xrow = x.data[b * feat : (b + 1) * feat]
        out += [math.fsum(map(mul, xrow, wcol)) + bo for wcol, bo in zip(wcols, bias.data)]
    return Tensor((batch, w.cols), out)
