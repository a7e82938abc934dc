import math
import random
from functools import partial

import pytest

from motifbench.datasets import Matrix, Tensor, TextCorpus
from motifbench.errors import KernelError
from motifbench.kernels import get_kernel
from motifbench.kernels.logic import elementwise_activation
from motifbench.kernels.matrixops import fully_connected, mat_elementwise, matmul
from motifbench.kernels.sampling import downsample, dropout, pool, random_sample
from motifbench.kernels.statistic import batch_norm, cosine_norm

from .oracles import table_of_rows, triple_loop_matmul


def rand_matrix(rng, rows, cols, lo=-10.0, hi=10.0):
    return Matrix(rows, cols, [rng.uniform(lo, hi) for _ in range(rows * cols)])


def rand_tensor(rng, shape, lo=-5.0, hi=5.0):
    size = math.prod(shape)
    return Tensor(shape, [rng.uniform(lo, hi) for _ in range(size)])


# ---------------------------------------------------------------------------
# matmul / elementwise / fully_connected


def test_matmul_identity():
    eye = Matrix(2, 2, [1, 0, 0, 1])
    a = Matrix(2, 2, [5, 6, 7, 8])
    assert matmul(eye, a) == a


def test_matmul_hand_example():
    a = Matrix(2, 2, [1, 2, 3, 4])
    b = Matrix(2, 2, [5, 6, 7, 8])
    assert matmul(a, b).data == (19.0, 22.0, 43.0, 50.0)


def test_matmul_dimension_mismatch():
    with pytest.raises(KernelError):
        matmul(Matrix(2, 3, range(6)), Matrix(2, 2, range(4)))


def test_matmul_matches_triple_loop_oracle_64():
    rng = random.Random(23)
    a = rand_matrix(rng, 64, 64)
    b = rand_matrix(rng, 64, 64)
    got = matmul(a, b).data
    want = triple_loop_matmul(64, 64, a.data, 64, b.data)
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-9


def test_elementwise_ops():
    rng = random.Random(29)
    a = rand_matrix(rng, 5, 7)
    b = rand_matrix(rng, 5, 7)
    zero = mat_elementwise(a, a, "subtract")
    assert all(v == 0.0 for v in zero.data)
    assert mat_elementwise(a, Matrix(5, 7, [0.0] * 35), "add") == a
    had = mat_elementwise(a, b, "hadamard")
    assert all(had.data[i] == a.data[i] * b.data[i] for i in range(35))


def test_elementwise_shape_mismatch():
    with pytest.raises(KernelError):
        mat_elementwise(Matrix(1, 2, [1, 2]), Matrix(2, 1, [1, 2]), "add")


def test_fully_connected_identity_weights():
    x = Tensor((2, 3), [1, 2, 3, 4, 5, 6])
    w = Matrix(3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1])
    bias = Tensor((3,), [0, 0, 0])
    assert fully_connected(x, w, bias).data == x.data


def test_fully_connected_hand_example():
    x = Tensor((1, 2), [2, 3])
    w = Matrix(2, 1, [1, 1])
    bias = Tensor((1,), [1])
    assert fully_connected(x, w, bias).data == (6.0,)


def test_fully_connected_matches_matmul_plus_bias():
    rng = random.Random(31)
    x = rand_tensor(rng, (4, 6))
    w = rand_matrix(rng, 6, 3)
    bias = rand_tensor(rng, (3,))
    got = fully_connected(x, w, bias)
    prod = matmul(Matrix(4, 6, x.data), w)
    want = [prod.data[i * 3 + o] + bias.data[o] for i in range(4) for o in range(3)]
    assert max(abs(a - b) for a, b in zip(got.data, want)) < 1e-12


def test_fully_connected_flattens_trailing_dims():
    rng = random.Random(37)
    x = rand_tensor(rng, (2, 3, 2))  # 6 features per sample
    w = rand_matrix(rng, 6, 2)
    bias = rand_tensor(rng, (2,))
    out = fully_connected(x, w, bias)
    assert out.shape == (2, 2)


def test_fully_connected_dim_mismatch():
    with pytest.raises(KernelError):
        fully_connected(Tensor((1, 2), [1, 2]), Matrix(3, 1, [1, 1, 1]), Tensor((1,), [0]))


# ---------------------------------------------------------------------------
# activations


def test_relu():
    out = elementwise_activation(Tensor((3,), [-1, 0, 2]), "relu")
    assert out.data == (0.0, 0.0, 2.0)


def test_sigmoid_tanh_at_zero():
    assert elementwise_activation(Tensor((1,), [0]), "sigmoid").data == (0.5,)
    assert elementwise_activation(Tensor((1,), [0]), "tanh").data == (0.0,)


def test_sigmoid_extremes_do_not_overflow():
    out = elementwise_activation(Tensor((2,), [-1000.0, 1000.0]), "sigmoid")
    assert out.data[0] == 0.0 and out.data[1] == 1.0


def test_activations_match_scalar_oracle():
    rng = random.Random(41)
    x = rand_tensor(rng, (5, 11), lo=-8, hi=8)
    for fn, ref in (
        ("relu", lambda v: max(0.0, v)),
        ("sigmoid", lambda v: 1.0 / (1.0 + math.exp(-v))),
        ("tanh", math.tanh),
    ):
        got = elementwise_activation(x, fn).data
        assert max(abs(g - ref(v)) for g, v in zip(got, x.data)) < 1e-12


# ---------------------------------------------------------------------------
# batch_norm / cosine_norm


def test_batch_norm_constant_slice_is_zero():
    out = batch_norm(Tensor((4,), [3, 3, 3, 3]), axis=0, epsilon=1e-6)
    assert all(v == 0.0 for v in out.data)


def test_batch_norm_two_point_slice():
    out = batch_norm(Tensor((2,), [0, 2]), axis=0, epsilon=1e-12)
    assert out.data[0] == pytest.approx(-1.0, abs=1e-6)
    assert out.data[1] == pytest.approx(1.0, abs=1e-6)


def test_batch_norm_moments_oracle():
    rng = random.Random(43)
    x = rand_tensor(rng, (8, 5))
    out = batch_norm(x, axis=0, epsilon=1e-12)
    for j in range(5):
        col = [out.data[i * 5 + j] for i in range(8)]
        mean = math.fsum(col) / 8
        var = math.fsum((v - mean) ** 2 for v in col) / 8
        assert abs(mean) < 1e-9
        assert abs(var - 1.0) < 1e-6


def test_batch_norm_bad_axis():
    with pytest.raises(KernelError):
        batch_norm(Tensor((2,), [1, 2]), axis=1, epsilon=1e-6)


@pytest.mark.parametrize("norm", [partial(batch_norm, epsilon=1e-6), cosine_norm],
                         ids=["batch_norm", "cosine_norm"])
def test_norm_axis_out_of_range_is_named(norm):
    with pytest.raises(KernelError) as err:
        norm(Tensor((2, 3), [1, 2, 3, 4, 5, 6]), axis=2)
    assert str(err.value) == "axis 2 out of range for rank-2 tensor"


def test_cosine_norm_unit_vector_unchanged():
    out = cosine_norm(Tensor((2,), [1, 0]), axis=0)
    assert out.data == (1.0, 0.0)


def test_cosine_norm_three_four_five():
    out = cosine_norm(Tensor((2,), [3, 4]), axis=0)
    assert out.data == (0.6, 0.8)


def test_cosine_norm_unit_norms():
    rng = random.Random(47)
    x = rand_tensor(rng, (6, 9))
    out = cosine_norm(x, axis=1)
    for i in range(6):
        row = out.data[i * 9 : (i + 1) * 9]
        assert abs(math.sqrt(math.fsum(v * v for v in row)) - 1.0) < 1e-12


def test_cosine_norm_zero_slice_rejected():
    with pytest.raises(KernelError):
        cosine_norm(Tensor((2, 2), [0, 0, 1, 1]), axis=1)


# ---------------------------------------------------------------------------
# sampling


def test_random_sample_full_and_empty():
    corpus = TextCorpus([f"line{i}" for i in range(100)])
    assert random_sample(corpus, 1.0, seed=9) == corpus
    assert random_sample(corpus, 0.0, seed=9).documents == ()


def test_random_sample_binomial_bound():
    corpus = TextCorpus([f"{i}" for i in range(100_000)])
    kept = len(random_sample(corpus, 0.5, seed=123).documents)
    sigma = math.sqrt(100_000 * 0.25)
    assert abs(kept - 50_000) <= 3 * sigma


def test_random_sample_deterministic_and_order_preserving():
    t = table_of_rows([("i", "integer")], [(i,) for i in range(1000)])
    a = random_sample(t, 0.3, seed=5)
    b = random_sample(t, 0.3, seed=5)
    assert a == b
    values = [r[0] for r in a.rows]
    assert values == sorted(values)


def test_random_sample_fraction_range():
    with pytest.raises(KernelError, match="'fraction'=1.5 out of range"):
        get_kernel("sampling.random_sample").coerce_params({"fraction": "1.5"})


def test_pool_max_and_avg_2x2():
    x = Tensor((1, 2, 2, 1), [1, 2, 3, 4])
    assert pool(x, 2, 2, "max").data == (4.0,)
    assert pool(x, 2, 2, "avg").data == (2.5,)


def test_pool_matches_window_scan_oracle():
    rng = random.Random(53)
    x = rand_tensor(rng, (2, 6, 5, 3))
    for mode in ("max", "avg"):
        out = pool(x, 2, 2, mode)
        b_, h, w, c = x.shape
        oh, ow = (h - 2) // 2 + 1, (w - 2) // 2 + 1
        assert out.shape == (2, oh, ow, 3)
        for b in range(2):
            for i in range(oh):
                for j in range(ow):
                    for ch in range(3):
                        window = [
                            x.data[((b * h + (2 * i + u)) * w + (2 * j + v)) * c + ch]
                            for u in range(2)
                            for v in range(2)
                        ]
                        got = out.data[((b * oh + i) * ow + j) * 3 + ch]
                        if mode == "max":
                            assert got == max(window)
                        else:
                            assert abs(got - sum(window) / 4) < 1e-12


def test_pool_window_too_large():
    with pytest.raises(KernelError):
        pool(Tensor((1, 2, 2, 1), [1, 2, 3, 4]), 3, 1, "max")


def test_downsample_identity_and_stride():
    m = Matrix(4, 4, range(16))
    assert downsample(m, 1) == m
    out = downsample(m, 2)
    assert out.rows == 2 and out.cols == 2
    assert out.data == (0.0, 2.0, 8.0, 10.0)


def test_downsample_matches_index_oracle():
    rng = random.Random(59)
    m = rand_matrix(rng, 7, 9)
    out = downsample(m, 3)
    for i in range(out.rows):
        for j in range(out.cols):
            assert out.data[i * out.cols + j] == m.data[3 * i * m.cols + 3 * j]


def test_downsample_bad_factor():
    with pytest.raises(KernelError, match="'factor'=0 out of range"):
        get_kernel("sampling.downsample").coerce_params({"factor": "0"})


def test_dropout_edges():
    x = Tensor((4,), [1, 2, 3, 4])
    assert dropout(x, 0.0, seed=1) == x
    assert dropout(x, 1.0, seed=1).data == (0.0, 0.0, 0.0, 0.0)


def test_dropout_binomial_bound_and_scaling():
    n = 100_000
    x = Tensor((n,), [1.0] * n)
    out = dropout(x, 0.3, seed=77)
    zeroed = sum(1 for v in out.data if v == 0.0)
    sigma = math.sqrt(n * 0.3 * 0.7)
    assert abs(zeroed - 0.3 * n) <= 3 * sigma
    survivor = next(v for v in out.data if v != 0.0)
    assert survivor == pytest.approx(1.0 / 0.7)


def test_dropout_deterministic_per_seed():
    x = Tensor((64,), [float(i) for i in range(64)])
    assert dropout(x, 0.5, seed=4) == dropout(x, 0.5, seed=4)
    assert dropout(x, 0.5, seed=4) != dropout(x, 0.5, seed=5)
