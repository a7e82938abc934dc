import math
import random

import pytest

from motifbench.datasets import Graph, Matrix, Tensor
from motifbench.errors import KernelError
from motifbench.kernels import get_kernel
from motifbench.kernels.graphops import connected_components, pagerank
from motifbench.kernels.transform import (
    _fft2d_rows,
    _fft_rows,
    convolution,
    fft,
)

from .oracles import (
    dense_pagerank,
    naive_convolution,
    naive_dft,
    naive_dft2d,
    union_find_components,
)


def rand_complex(rng, n):
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


# ---------------------------------------------------------------------------
# fft: _fft_rows and _fft2d_rows are the cores every transform kernel runs


def test_fft_impulse():
    assert _fft_rows([1 + 0j, 0j, 0j, 0j], 4, False) == [1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j]


def test_fft_constant():
    out = _fft_rows([1 + 0j] * 4, 4, False)
    assert abs(out[0] - 4) < 1e-12
    assert all(abs(v) < 1e-12 for v in out[1:])


def test_fft_length_one():
    assert _fft_rows([3 + 1j], 1, False) == [3 + 1j]


def test_fft_rejects_non_power_of_two():
    with pytest.raises(KernelError):
        _fft_rows([1 + 0j, 2 + 0j, 3 + 0j], 3, False)


def test_fft_matches_naive_dft():
    rng = random.Random(61)
    x = rand_complex(rng, 256)
    got = _fft_rows(x, len(x), False)
    want = naive_dft(x)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9


def test_ifft_matches_naive_inverse_and_inverts():
    rng = random.Random(67)
    x = rand_complex(rng, 128)
    freq = _fft_rows(x, len(x), False)
    back = _fft_rows(freq, len(freq), True)
    assert max(abs(a - b) for a, b in zip(back, x)) < 1e-9
    want = naive_dft(freq, inverse=True)
    assert max(abs(a - b) for a, b in zip(back, want)) < 1e-9


def test_fft2d_constant_has_single_dc_term():
    out = _fft2d_rows([2.0 + 0j] * 16, 4, 4, False)
    assert abs(out[0] - 32) < 1e-12
    assert all(abs(v) < 1e-12 for v in out[1:])


def test_fft2d_matches_naive_2d_dft():
    rng = random.Random(71)
    grid = [rand_complex(rng, 16) for _ in range(16)]
    got = _fft2d_rows([v for row in grid for v in row], 16, 16, False)
    want = naive_dft2d(grid)
    err = max(abs(got[i * 16 + j] - want[i][j]) for i in range(16) for j in range(16))
    assert err < 1e-9


def test_matrix_fft2d_roundtrip_32x32():
    rng = random.Random(73)
    m = Matrix(32, 32, [rng.uniform(0, 255) for _ in range(32 * 32)])
    back = fft(fft(m, two_d=True, inverse=False), two_d=True, inverse=True)
    assert max(abs(a - b) for a, b in zip(back.data, m.data)) < 1e-9


def test_matrix_fft_row_roundtrip():
    rng = random.Random(79)
    m = Matrix(4, 8, [rng.uniform(-1, 1) for _ in range(32)])
    back = fft(fft(m, two_d=False, inverse=False), two_d=False, inverse=True)
    assert back.rows == 4 and back.cols == 8
    assert max(abs(a - b) for a, b in zip(back.data, m.data)) < 1e-9


def test_matrix_fft2d_rejects_non_power_of_two():
    with pytest.raises(KernelError):
        fft(Matrix(3, 4, range(12)), two_d=True, inverse=False)


# ---------------------------------------------------------------------------
# convolution


def test_convolution_1x1_identity_kernel():
    rng = random.Random(83)
    x = Tensor((1, 4, 4, 1), [rng.uniform(-1, 1) for _ in range(16)])
    k = Tensor((1, 1, 1, 1), [1.0])
    out = convolution(x, k, stride=1, padding="valid")
    assert out.shape == x.shape and out.data == x.data


def test_convolution_all_ones_kernel_on_constant_image():
    c = 0.5
    x = Tensor((1, 5, 5, 1), [c] * 25)
    k = Tensor((3, 3, 1, 1), [1.0] * 9)
    out = convolution(x, k, stride=1, padding="valid")
    assert out.shape == (1, 3, 3, 1)
    assert all(abs(v - 9 * c) < 1e-12 for v in out.data)


def test_convolution_matches_naive_oracle_valid_and_same():
    rng = random.Random(89)
    x = Tensor((2, 6, 7, 3), [rng.uniform(-1, 1) for _ in range(2 * 6 * 7 * 3)])
    k = Tensor((3, 2, 3, 4), [rng.uniform(-1, 1) for _ in range(3 * 2 * 3 * 4)])
    for padding, stride in (("valid", 1), ("valid", 2), ("same", 1), ("same", 2)):
        out = convolution(x, k, stride=stride, padding=padding)
        b, oh, ow, co = out.shape
        if padding == "valid":
            pt = pl = 0
        else:
            pt = max((oh - 1) * stride + 3 - 6, 0) // 2
            pl = max((ow - 1) * stride + 2 - 7, 0) // 2
        want = naive_convolution(x.shape, x.data, k.shape, k.data, stride, pt, pl, oh, ow)
        assert max(abs(a - b2) for a, b2 in zip(out.data, want)) < 1e-9


def test_convolution_channel_mismatch():
    with pytest.raises(KernelError):
        convolution(Tensor((1, 4, 4, 2), [0.0] * 32), Tensor((3, 3, 1, 1), [0.0] * 9),
                    stride=1, padding="valid")


def test_convolution_same_output_shape():
    x = Tensor((1, 5, 5, 1), [0.0] * 25)
    k = Tensor((3, 3, 1, 2), [0.0] * 18)
    assert convolution(x, k, stride=1, padding="same").shape == (1, 5, 5, 2)


# ---------------------------------------------------------------------------
# connected components


def test_components_triangle():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert connected_components(g) == [0, 0, 0]


def test_components_two_pairs():
    g = Graph(4, [(0, 1), (2, 3)])
    assert connected_components(g) == [0, 0, 2, 2]


def test_components_labels_are_component_minimum():
    g = Graph(5, [(4, 3), (3, 1)])
    labels = connected_components(g)
    assert labels == [0, 1, 2, 1, 1]


def test_components_match_union_find_oracle():
    rng = random.Random(97)
    n = 1000
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.002]
    g = Graph(n, edges)
    assert connected_components(g) == union_find_components(n, edges)


# ---------------------------------------------------------------------------
# pagerank


def test_pagerank_single_vertex():
    assert pagerank(Graph(1, []), damping=0.85, max_iters=100, tol=1e-10) == [1.0]


def test_pagerank_two_cycle_symmetric():
    scores = pagerank(Graph(2, [(0, 1), (1, 0)]), damping=0.85, max_iters=100, tol=1e-10)
    assert scores[0] == pytest.approx(0.5, abs=1e-12)
    assert scores[1] == pytest.approx(0.5, abs=1e-12)


def test_pagerank_scores_sum_to_one():
    rng = random.Random(101)
    edges = [(rng.randrange(50), rng.randrange(50)) for _ in range(300)]
    scores = pagerank(Graph(50, edges), damping=0.85, max_iters=200, tol=1e-14)
    assert abs(sum(scores) - 1.0) < 1e-9


def test_pagerank_chain_matches_dense_oracle():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    got = pagerank(g, damping=0.85, max_iters=300, tol=0.0)
    want = dense_pagerank(5, g.edges, 0.85, 300)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_pagerank_rejects_bad_damping_and_undirected():
    # damping is bounded by the schema, the one check a spec's value passes
    with pytest.raises(KernelError, match="'damping'=1.0 out of range"):
        get_kernel("graph.pagerank").coerce_params({"damping": "1.0"})
    with pytest.raises(KernelError):
        pagerank(Graph(2, [(0, 1)], directed=False), damping=0.85, max_iters=100, tol=1e-10)
