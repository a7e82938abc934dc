"""Transform-family kernels: radix-2 FFT in one and two dimensions plus direct
convolution.

The FFT is the iterative Cooley-Tukey form (bit-reversal permutation, then
butterflies of doubling span), restricted to power-of-two lengths. It runs
over all rows of a flat list at once, one slice operation per twiddle per
stage, with each butterfly's operations in the scalar loop's order, so the
bits match that loop's. The fft kernel packs complex planes as real matrices
with interleaved re,im columns so spectra can flow through the dataset
pipeline; the registry holds its four variants as partials.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, attrgetter, mul, sub

from ..datasets import Matrix, Tensor
from ..errors import KernelError
from ..floatsum import left_sum

_real, _imag = attrgetter("real"), attrgetter("imag")


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@lru_cache(maxsize=32)
def _bit_reversal(n: int) -> tuple[int, ...]:
    rev = [0]
    while len(rev) < n:
        rev = [2 * r for r in rev] + [2 * r + 1 for r in rev]
    return tuple(rev)


@lru_cache(maxsize=64)
def _twiddles(span: int, inverse: bool) -> tuple[complex, ...]:
    """w**o for o < span/2, w = exp(+-2 pi i / span), as the running product
    1+0j, (1+0j)*w, ... Powers taken from cos/sin of o times the angle, or a
    table without the first multiply by 1+0j (which can flip the sign of a
    zero), give other bits."""
    ang = (1.0 if inverse else -1.0) * 2.0 * math.pi / span
    w_span = complex(math.cos(ang), math.sin(ang))
    return tuple(accumulate(repeat(w_span, (span >> 1) - 1), mul, initial=1.0 + 0.0j))


def _fft_rows(d: list[complex], n: int, inverse: bool) -> list[complex]:
    """FFT (or inverse FFT with 1/n scaling) of every consecutive length-n row
    of the flat list d."""
    if not _is_pow2(n):
        raise KernelError(f"fft length must be a power of two, got {n}")
    out = [0j] * len(d)
    for t, p in enumerate(_bit_reversal(n)):
        out[t::n] = d[p::n]
    span = 2
    while span <= n:
        half = span >> 1
        for o, w in enumerate(_twiddles(span, inverse)):
            top = out[o::span]
            v = list(map(mul, out[o + half :: span], repeat(w)))
            out[o::span] = map(add, top, v)
            out[o + half :: span] = map(sub, top, v)
        span <<= 1
    if inverse:
        out = list(map(mul, out, repeat(1.0 / n)))
    return out


def _fft2d_rows(d: list[complex], rows: int, cols: int, inverse: bool) -> list[complex]:
    """2-D FFT of the row-major rows x cols plane d: rows, then columns."""
    if not (_is_pow2(rows) and _is_pow2(cols)):
        raise KernelError(f"fft2d dims must be powers of two, got {rows}x{cols}")
    d = _fft_rows(d, cols, inverse)
    d = _fft_rows(list(chain.from_iterable(d[j::cols] for j in range(cols))), rows, inverse)
    return list(chain.from_iterable(d[i::rows] for i in range(rows)))


def fft(m: Matrix, two_d: bool, inverse: bool) -> Matrix:
    """Row-wise (or 2-D) FFT of a real matrix, or its inverse. A complex
    r x c plane travels as a real r x 2c matrix with columns re0, im0, re1,
    im1, ...: the forward transform returns one, and the inverse takes one
    and returns the real part of the reconstruction."""
    if inverse:
        if m.cols % 2 != 0:
            raise KernelError(f"interleaved complex matrix needs even cols, got {m.cols}")
        cols, d = m.cols // 2, list(map(complex, m.data[0::2], m.data[1::2]))
    else:
        cols, d = m.cols, list(map(complex, m.data))
    d = _fft2d_rows(d, m.rows, cols, inverse) if two_d else _fft_rows(d, cols, inverse)
    if inverse:
        return Matrix(m.rows, cols, map(_real, d))
    data = [0.0] * (2 * len(d))
    data[0::2] = map(_real, d)
    data[1::2] = map(_imag, d)
    return Matrix(m.rows, 2 * cols, data)


# ---------------------------------------------------------------------------
# convolution


def convolution(x: Tensor, k: Tensor, stride: int, padding: str) -> Tensor:
    """Direct cross-correlation of [batch, h, w, c_in] with [kh, kw, c_in, c_out].

    valid: no padding, output dim floor((dim - kdim) / stride) + 1.
    same:  zero padding split evenly (extra on the bottom/right), output dim
           ceil(dim / stride).
    """
    if x.rank != 4:
        raise KernelError(f"convolution input must be [batch, h, w, c], got {x.shape}")
    if k.rank != 4:
        raise KernelError(f"convolution kernel must be [kh, kw, c_in, c_out], got {k.shape}")
    batch, h, w, cin = x.shape
    kh, kw, kcin, cout = k.shape
    if kcin != cin:
        raise KernelError(f"kernel expects {kcin} input channels, input has {cin}")
    if padding == "valid":
        if kh > h or kw > w:
            raise KernelError(f"kernel {kh}x{kw} larger than input {h}x{w}")
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
    else:  # same
        oh = -(-h // stride)
        ow = -(-w // stride)
    pad_h = max((oh - 1) * stride + kh - h, 0)
    pad_w = max((ow - 1) * stride + kw - w, 0)
    hp, row = h + pad_h, (w + pad_w) * cin  # padded height, values per padded row
    xd = x.data
    if pad_h or pad_w:  # a zero-padded copy, half of each pad (rounded down) before
        xd = [0.0] * (batch * hp * row)
        for r in range(batch * h):
            at = (r // h * hp + r % h + pad_h // 2) * row + pad_w // 2 * cin
            xd[at : at + w * cin] = x.data[r * w * cin : (r + 1) * w * cin]

    # Each output channel folds its products in (u, v, ci) order from 0, and
    # k.data[co::cout] lists that channel's weights in the same order. A padding
    # product is +-0.0, which leaves a finite fold unchanged: the fold starts
    # at +0.0 and never holds -0.0 (x + y is -0.0 only when both are), so
    # skipping out-of-range taps would give the same bits.
    kcols = [k.data[co::cout] for co in range(cout)]
    out = []
    for top in [(b * hp + i * stride) * row for b in range(batch) for i in range(oh)]:
        for left in range(top, top + ow * stride * cin, stride * cin):
            xs = []
            for s in range(left, left + kh * row, row):
                xs += xd[s : s + kw * cin]
            out += [left_sum(map(mul, xs, kc)) for kc in kcols]
    return Tensor((batch, oh, ow, cout), out)
