"""Sampling-family kernels: record sampling, spatial pooling, grid
downsampling, and dropout. All randomness comes from the seeded SplitMix64
stream, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import add

from ..datasets import Matrix, Table, Tensor, TextCorpus
from ..errors import KernelError
from ..floatsum import left_sum
from ..rng import SplitMix64, cut_coder, random_cut

# Code 0 from a one-cut coder: the draw is below the cut, so random() < p.
_BELOW_CUT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _above(p: float, seed: int, n: int) -> bytearray:
    """Byte i is 1 when the i-th draw of SplitMix64(seed) has random() >= p."""
    return cut_coder([random_cut(p)])(SplitMix64(seed).u64s(n))


def random_sample(data, fraction: float, seed: int):
    """Keep each record independently with probability `fraction`; relative
    order preserved; deterministic per (input, fraction, seed). Record i is
    kept when the i-th draw's random() < fraction."""
    keep = _above(fraction, seed, len(data)).translate(_BELOW_CUT)
    if isinstance(data, TextCorpus):
        return TextCorpus(compress(data.documents, keep))
    return Table(data.schema, [compress(col, keep) for col in data.columns])


def pool(x: Tensor, window: int, stride: int, mode: str) -> Tensor:
    """max/avg pooling over the spatial dims of a [batch, h, w, c] tensor;
    output spatial size is floor((dim - window) / stride) + 1."""
    if x.rank != 4:
        raise KernelError(f"pool needs a [batch, h, w, c] tensor, got shape {x.shape}")
    batch, h, w, c = x.shape
    if window > h or window > w:
        raise KernelError(f"window {window} larger than spatial dims {h}x{w}")
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    area = window * window
    # One list per tap (u, v), in a window scan's u-then-v order, across every
    # output cell and channel; max() keeps the first of equal maxima, as a scan would.
    corners = [((b * h + i * stride) * w + j * stride) * c + ch
               for b in range(batch) for i in range(oh) for j in range(ow) for ch in range(c)]
    taps = [list(map(x.data.__getitem__, map(add, corners, repeat((u * w + v) * c))))
            for u in range(window) for v in range(window)]
    if mode == "avg":
        out = [left_sum(vals) / area for vals in zip(*taps)]
    else:  # max() of one bare float would raise
        out = taps[0] if area == 1 else list(map(max, *taps))
    return Tensor((batch, oh, ow, c), out)


def downsample(m: Matrix, factor: int) -> Matrix:
    """Keep every factor-th row and column starting at (0, 0)."""
    rows = (m.rows + factor - 1) // factor
    cols = (m.cols + factor - 1) // factor
    out = []
    for i in range(0, m.rows, factor):
        out += m.data[i * m.cols : (i + 1) * m.cols : factor]
    return Matrix(rows, cols, out)


def dropout(x: Tensor, p: float, seed: int) -> Tensor:
    """Inverted dropout: zero each element with probability p, scale survivors
    by 1/(1-p); p=1 zeroes everything without scaling."""
    if p == 1.0:
        return Tensor(x.shape, [0.0] * len(x.data))
    scale = 1.0 / (1.0 - p)
    kept = _above(p, seed, len(x.data))
    return Tensor(x.shape, [v * scale if k else 0.0 for k, v in zip(kept, x.data)])
