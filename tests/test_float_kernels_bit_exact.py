"""The float kernels and the gaussian generator against their scalar
references, compared as little-endian binary64 bytes, not within a tolerance.

The batched FFT, the gather-and-fold convolution, tap-column pooling and the
bulk Box-Muller draw each keep the floating-point operations of one output in
the order the scalar loops in `oracles` perform them, so every output must
carry the same bits, signed zeros included.
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from motifbench.datasets import Matrix, Tensor
from motifbench.generators import Gaussian
from motifbench.kernels.sampling import pool
from motifbench.kernels.transform import (
    _fft2d_rows,
    _fft_rows,
    convolution,
    matrix_fft,
    matrix_fft2d,
    matrix_ifft,
    matrix_ifft2d,
)
from motifbench.rng import BULK_BLOCK, SplitMix64, _GAMMA

from .oracles import (
    naive_convolution,
    scalar_fft,
    scalar_fft2d,
    scalar_gaussian_draws,
    window_pool,
)

EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308)


def edge_doubles(rng, n):
    """n doubles, a quarter of them signed zeros and subnormals, the rest
    uniform in [-1000, 1000]."""
    return [rng.choice(EDGE_VALUES) if rng.random() < 0.25 else rng.uniform(-1e3, 1e3)
            for _ in range(n)]


def bits(values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def complex_bits(values) -> bytes:
    return bits(p for z in values for p in (z.real, z.imag))


# ---------------------------------------------------------------------------
# FFT


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), log_n=st.integers(0, 8), inverse=st.booleans())
def test_fft_bit_equal_to_scalar_butterflies(seed, log_n, inverse):
    rng = random.Random(seed)
    n = 1 << log_n
    values = list(map(complex, edge_doubles(rng, n), edge_doubles(rng, n)))
    got = _fft_rows(values, n, inverse)
    assert complex_bits(got) == complex_bits(scalar_fft(values, inverse))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), dims=st.sampled_from([(1, 1), (1, 8), (4, 32), (32, 4)]),
       inverse=st.booleans())
def test_fft2d_bit_equal_to_scalar_rows_then_columns(seed, dims, inverse):
    rng = random.Random(seed)
    rows, cols = dims
    grid = [list(map(complex, edge_doubles(rng, cols), edge_doubles(rng, cols)))
            for _ in range(rows)]
    got = _fft2d_rows([z for row in grid for z in row], rows, cols, inverse)
    want = scalar_fft2d(grid, inverse)
    assert complex_bits(got) == b"".join(map(complex_bits, want))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), dims=st.sampled_from([(1, 1), (1, 8), (4, 32), (32, 4)]))
def test_matrix_transforms_bit_equal_to_scalar_butterflies(seed, dims):
    rng = random.Random(seed)
    rows, cols = dims
    m = Matrix(rows, cols, edge_doubles(rng, rows * cols))
    grid = [list(m.row(i)) for i in range(rows)]

    spectrum = [scalar_fft(row) for row in grid]
    assert bits(matrix_fft(m).data) == b"".join(map(complex_bits, spectrum))
    spectrum2d = scalar_fft2d(grid)
    assert bits(matrix_fft2d(m).data) == b"".join(map(complex_bits, spectrum2d))

    packed = Matrix(rows, 2 * cols, edge_doubles(rng, 2 * rows * cols))
    planes = [list(map(complex, packed.row(i)[0::2], packed.row(i)[1::2])) for i in range(rows)]
    want = [z.real for row in planes for z in scalar_fft(row, inverse=True)]
    assert bits(matrix_ifft(packed).data) == bits(want)
    want = [z.real for row in scalar_fft2d(planes, inverse=True) for z in row]
    assert bits(matrix_ifft2d(packed).data) == bits(want)


# ---------------------------------------------------------------------------
# convolution


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32), kh=st.integers(1, 4), kw=st.integers(1, 4),
       cin=st.integers(1, 3), cout=st.integers(1, 3), stride=st.integers(1, 3),
       padding=st.sampled_from(["valid", "same"]), batch=st.integers(1, 2),
       extra_h=st.integers(0, 4), extra_w=st.integers(0, 4))
def test_convolution_bit_equal_to_padding_skipping_loop(seed, kh, kw, cin, cout, stride,
                                                       padding, batch, extra_h, extra_w):
    rng = random.Random(seed)
    h, w = kh + extra_h, kw + extra_w
    if padding == "same":
        h, w = 1 + extra_h, 1 + extra_w  # inputs smaller than the kernel too
    x = Tensor((batch, h, w, cin), edge_doubles(rng, batch * h * w * cin))
    k = Tensor((kh, kw, cin, cout), edge_doubles(rng, kh * kw * cin * cout))
    out = convolution(x, k, stride=stride, padding=padding)
    _, oh, ow, _ = out.shape
    pad_top = pad_left = 0
    if padding == "same":
        pad_top = max((oh - 1) * stride + kh - h, 0) // 2
        pad_left = max((ow - 1) * stride + kw - w, 0) // 2
    want = naive_convolution(x.shape, x.data, k.shape, k.data, stride, pad_top, pad_left, oh, ow)
    assert bits(out.data) == bits(want)


# ---------------------------------------------------------------------------
# pooling


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), window_stride=st.sampled_from([(1, 1), (2, 2), (3, 1), (3, 2)]),
       mode=st.sampled_from(["max", "avg"]), batch=st.integers(1, 2), c=st.integers(1, 3),
       extra_h=st.integers(0, 4), extra_w=st.integers(0, 4))
def test_pool_bit_equal_to_window_scan(seed, window_stride, mode, batch, c, extra_h, extra_w):
    rng = random.Random(seed)
    window, stride = window_stride
    shape = (batch, window + extra_h, window + extra_w, c)
    x = Tensor(shape, edge_doubles(rng, batch * shape[1] * shape[2] * c))
    got = pool(x, window, stride, mode)
    assert bits(got.data) == bits(window_pool(shape, x.data, window, stride, mode))


@pytest.mark.parametrize("mode", ["max", "avg"])
@pytest.mark.parametrize("stride", [1, 2])
def test_pool_single_tap_window(mode, stride):
    # One tap per output: max() of a bare float would raise, so a window of
    # one has its own branch. Max copies the input; avg adds it to 0, which
    # turns -0.0 into 0.0.
    x = Tensor((1, 2, 3, 2), [1.5, -0.0, 0.0, -2.0, 5e-324, 3.0, 4.0, -1.0, 0.5, 2.0, -3.5, 7.0])
    got = pool(x, 1, stride, mode)
    assert bits(got.data) == bits(window_pool(x.shape, x.data, 1, stride, mode))
    if stride == 1 and mode == "max":
        assert bits(got.data) == bits(x.data)


# ---------------------------------------------------------------------------
# gaussian draws


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), mu=st.floats(-100, 100), sigma=st.floats(1e-3, 100),
       n=st.sampled_from([0, 1, 2, 7, BULK_BLOCK // 2, BULK_BLOCK // 2 + 1, 3000]))
def test_gaussian_draws_equal_scalar_box_muller(seed, mu, sigma, n):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    got = Gaussian(mu, sigma).draws(bulk, n)
    assert bits(got) == bits(scalar_gaussian_draws(scalar, mu, sigma, n))
    assert bulk._state == scalar._state


GAUSS_N = 1500  # pairs span more than one bulk block


# Seed -k * GAMMA makes the k-th draw (counting from 1) exactly 0.0: its state
# is 0 and splitmix64 maps 0 to 0. When that draw would be a pair's u1 the
# pair is rejected, which moves every later pair by one draw; when it is a
# u2 the pair is kept. k = 0 gives no zero draw.
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 2 * GAUSS_N - 2, 2 * GAUSS_N - 1, 2 * GAUSS_N,
                               BULK_BLOCK - 1, BULK_BLOCK + 1, BULK_BLOCK + 2])
def test_gaussian_draws_reject_a_zero_u1_like_the_scalar_loop(k):
    seed = (-k * _GAMMA) % 2**64
    if k:
        probe = SplitMix64(seed)
        assert [probe.next_u64() for _ in range(k)][-1] == 0
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    got = Gaussian(0.5, 2.0).draws(bulk, GAUSS_N)
    want = scalar_gaussian_draws(scalar, 0.5, 2.0, GAUSS_N)
    assert bits(got) == bits(want)
    assert bulk._state == scalar._state
    rejected = k % 2 == 1 and k < 2 * GAUSS_N
    assert bulk._state == (seed + (2 * GAUSS_N + rejected) * _GAMMA) % 2**64
