"""The float kernels and the gaussian generator against their scalar
references, compared as little-endian binary64 bytes, not within a tolerance.

The batched FFT, the gather-and-fold convolution, tap-column pooling, matrix
multiply, PageRank and the bulk Box-Muller draw each keep the floating-point
operations of one output in the order the scalar loops in `oracles` perform
them, so every output must carry the same bits, signed zeros included.
PageRank must also stop at the iteration the scalar loop stops at, and the
matrix row sort must keep tied rows, `-0.0` against `0.0` among them, in
their input order.
"""

import math
import operator
import random
import struct
import sys
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from motifbench.datasets import Graph, Matrix, Tensor
from motifbench.errors import InvariantError
from motifbench.floatsum import _reduce_sum, left_sum
from motifbench.generators import _draws
from motifbench.kernels.graphops import pagerank
from motifbench.kernels.matrixops import matmul
from motifbench.kernels.sampling import pool
from motifbench.kernels.sorting import sort_records
from motifbench.kernels.transform import (
    _fft2d_rows,
    _fft_rows,
    convolution,
    fft,
)
from motifbench.rng import BULK_BLOCK, SplitMix64, _GAMMA

from .oracles import (
    naive_convolution,
    scalar_fft,
    scalar_fft2d,
    scalar_gaussian_draws,
    scalar_pagerank,
    stable_mergesort,
    triple_loop_matmul,
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
# the left fold every float kernel adds with

FOLD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, math.inf, -math.inf,
                     1e308, -1e308, 1e16, -1e16, 0, 1, -1]),
    st.floats(allow_nan=False),
    st.integers(-2**70, 2**70),
)


def folded(value):
    return type(value), bits([value])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(FOLD_VALUES, max_size=12))
def test_left_sum_bit_equal_to_reduce_from_zero(values):
    want = folded(reduce(operator.add, values, 0))
    assert folded(left_sum(values)) == want
    assert folded(left_sum(iter(values))) == want
    assert folded(_reduce_sum(values)) == want


@pytest.mark.parametrize("fold", [left_sum, _reduce_sum])
def test_left_sum_rounds_every_add_and_starts_from_int_zero(fold):
    # A compensated sum (fsum, or sum() on 3.12+) recovers the 1.0 that the
    # left fold loses to rounding.
    assert fold([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert bits([fold([-0.0])]) == bits([0.0])
    assert bits([fold([-0.0, -0.0])]) == bits([0.0])
    assert fold([]) == 0 and type(fold([])) is int


def test_left_sum_is_the_builtin_through_3_11():
    assert left_sum is (sum if sys.version_info < (3, 12) else _reduce_sum)


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
    assert bits(fft(m, two_d=False, inverse=False).data) == b"".join(map(complex_bits, spectrum))
    spectrum2d = scalar_fft2d(grid)
    assert bits(fft(m, two_d=True, inverse=False).data) == b"".join(map(complex_bits, spectrum2d))

    packed = Matrix(rows, 2 * cols, edge_doubles(rng, 2 * rows * cols))
    planes = [list(map(complex, packed.row(i)[0::2], packed.row(i)[1::2])) for i in range(rows)]
    want = [z.real for row in planes for z in scalar_fft(row, inverse=True)]
    assert bits(fft(packed, two_d=False, inverse=True).data) == bits(want)
    want = [z.real for row in scalar_fft2d(planes, inverse=True) for z in row]
    assert bits(fft(packed, two_d=True, inverse=True).data) == bits(want)


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
# matrix multiply


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 9), k=st.integers(1, 40),
       m=st.integers(1, 9))
def test_matmul_bit_equal_to_triple_loop(seed, n, k, m):
    rng = random.Random(seed)
    a = Matrix(n, k, edge_doubles(rng, n * k))
    b = Matrix(k, m, edge_doubles(rng, k * m))
    assert bits(matmul(a, b).data) == bits(triple_loop_matmul(n, k, a.data, m, b.data))


@pytest.mark.parametrize("a, b, message", [
    (Matrix(1, 2, [1e200, 1e200]), Matrix(2, 1, [1e200, -1e200]), "got nan"),
    (Matrix(1, 1, [1e200]), Matrix(1, 1, [-1e200]), "got -inf"),
    (Matrix(2, 2, [1.0, 1e200, 2.0, 3.0]), Matrix(2, 2, [1.0, 2.0, 1e200, 4.0]), "got inf"),
])
def test_matmul_overflow_raises_on_the_first_non_finite_output(a, b, message):
    # An overflowing product leaves an inf (or an inf - inf nan) in the
    # output, which the result matrix rejects, naming the first such value.
    with pytest.raises(InvariantError) as info:
        matmul(a, b)
    assert str(info.value) == f"matrix values must be finite, {message}"


# ---------------------------------------------------------------------------
# pagerank


@st.composite
def pagerank_cases(draw):
    """A directed graph of up to 6 vertices, whose drawn edges give dangling
    vertices, self-loops and parallel edges, with a tol at, just below and
    just above each L1 change the scalar loop sees, or 0, or at random."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    damping = draw(st.sampled_from([0.85, 0.5]) | st.floats(1e-3, 0.999))
    max_iters = draw(st.integers(1, 40))
    _, deltas = scalar_pagerank(n, edges, damping, max_iters, 0.0)
    near = [t for d in deltas
            for t in (d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)) if t >= 0]
    tol = draw(st.sampled_from([0.0, *near]) | st.floats(0.0, 2.0))
    return n, edges, damping, max_iters, tol


@settings(max_examples=400, deadline=None)
@given(case=pagerank_cases())
@example(case=(1, [], 0.85, 100, 1e-10))
@example(case=(3, [(0, 0), (0, 1), (0, 1)], 0.85, 30, 1e-6))
@example(case=(4, [(0, 1), (1, 2), (2, 0), (3, 3)], 0.85, 16, 0.0))
def test_pagerank_bit_equal_to_scalar_loop(case):
    n, edges, damping, max_iters, tol = case
    want, _ = scalar_pagerank(n, edges, damping, max_iters, tol)
    assert bits(pagerank(Graph(n, edges), damping, max_iters, tol)) == bits(want)


# ---------------------------------------------------------------------------
# matrix row sort

SORT_VALUES = (st.sampled_from([0.0, -0.0, 1.0, -1.0])
               | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 4))
def test_sort_matrix_rows_bit_equal_to_stable_mergesort(data, rows, cols):
    key = data.draw(st.integers(0, cols - 1))
    m = Matrix(rows, cols, data.draw(st.lists(SORT_VALUES, min_size=rows * cols,
                                              max_size=rows * cols)))
    want = stable_mergesort([m.row(i) for i in range(rows)], key=lambda row: row[key])
    assert bits(sort_records(m, key).data) == bits(v for row in want for v in row)


# ---------------------------------------------------------------------------
# gaussian draws


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), mu=st.floats(-100, 100), sigma=st.floats(1e-3, 100),
       n=st.sampled_from([0, 1, 2, 7, BULK_BLOCK // 2, BULK_BLOCK // 2 + 1, 3000]))
def test_gaussian_draws_equal_scalar_box_muller(seed, mu, sigma, n):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    got = bulk.gausses(n, mu, sigma)
    assert bits(got) == bits(scalar_gaussian_draws(scalar, mu, sigma, n))
    assert bulk._state == scalar._state
    assert bits(_draws(seed, n, "gaussian", None, None, mu, sigma)) == bits(got)


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
    got = bulk.gausses(GAUSS_N, 0.5, 2.0)
    want = scalar_gaussian_draws(scalar, 0.5, 2.0, GAUSS_N)
    assert bits(got) == bits(want)
    assert bits(_draws(seed, GAUSS_N, "gaussian", None, None, 0.5, 2.0)) == bits(got)
    assert bulk._state == scalar._state
    rejected = k % 2 == 1 and k < 2 * GAUSS_N
    assert bulk._state == (seed + (2 * GAUSS_N + rejected) * _GAMMA) % 2**64
