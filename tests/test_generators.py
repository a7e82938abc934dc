import math
import random
from array import array

import pytest

from motifbench import generators
from motifbench.dataio import checksum_hex, checksum_payload
from motifbench.datasets import Table, TextCorpus
from motifbench.errors import InvariantError
from motifbench.generators import (
    DEFAULT_SEED_CORPUS,
    RMAT_DEFAULT,
    GenSpec,
    _draws,
    _rmat_edges,
    gen_graph,
    gen_matrix,
    gen_table,
    gen_tensor,
    gen_text,
    make_genspec,
    materialize,
)
from motifbench.kernels.sets import column_index
from motifbench.rng import BULK_BLOCK, SplitMix64

from .oracles import scalar_rmat_edges
from .test_pinned import GOLDEN_PLATFORM, _platform_fingerprint

RMAT = dict(zip("abcd", RMAT_DEFAULT))


# ---------------------------------------------------------------------------
# text


def test_text_degenerate_seed_vocabulary():
    seed = TextCorpus(["x x x", "x"])
    out = gen_text(500, rng_seed=1, corpus=seed)
    assert out.documents
    assert set(" ".join(out.documents).split()) == {"x"}


def test_text_deterministic():
    a = gen_text(10_000, rng_seed=42)
    b = gen_text(10_000, rng_seed=42)
    assert checksum_payload(a) == checksum_payload(b)
    c = gen_text(10_000, rng_seed=43)
    assert checksum_payload(a) != checksum_payload(c)


def test_text_size_within_five_percent():
    for target in (2_000, 50_000, 300_000):
        out = gen_text(target, rng_seed=7)
        size = sum(len(line.encode()) + 1 for line in out.documents)
        assert 0.95 * target <= size <= 1.05 * target


def test_text_vocabulary_subset_of_seed():
    out = gen_text(20_000, rng_seed=3)
    seed_vocab = set(" ".join(DEFAULT_SEED_CORPUS.documents).split())
    assert set(" ".join(out.documents).split()) <= seed_vocab


def test_text_unigram_total_variation_at_1mb():
    out = gen_text(1_000_000, rng_seed=11)

    def frequencies(corpus):
        counts: dict[str, int] = {}
        for line in corpus.documents:
            for tok in line.split():
                counts[tok] = counts.get(tok, 0) + 1
        total = sum(counts.values())
        return {k: v / total for k, v in counts.items()}

    p = frequencies(DEFAULT_SEED_CORPUS)
    q = frequencies(out)
    tvd = 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))
    assert tvd < 0.05


def test_text_empty_seed_rejected():
    with pytest.raises(InvariantError):
        gen_text(100, rng_seed=0, corpus=TextCorpus([]))
    with pytest.raises(InvariantError):
        gen_text(100, rng_seed=0, corpus=TextCorpus(["", "   "]))


# ---------------------------------------------------------------------------
# graph


def test_graph_uniform_tiny():
    g = gen_graph(2, 1, rng_seed=5, model="uniform")
    assert g.vertex_count == 2 and len(g.edges) == 1
    u, v = g.edges[0]
    assert 0 <= u < 2 and 0 <= v < 2


def test_graph_exact_edge_count_and_range():
    g = gen_graph(256, 4096, rng_seed=9, model="rmat", **RMAT)
    assert len(g.edges) == 4096
    assert all(0 <= u < 256 and 0 <= v < 256 for u, v in g.edges)


def test_graph_deterministic():
    a = gen_graph(128, 1000, rng_seed=2, model="rmat", **RMAT)
    b = gen_graph(128, 1000, rng_seed=2, model="rmat", **RMAT)
    assert checksum_payload(a) == checksum_payload(b)


def test_graph_rmat_skew():
    g = gen_graph(2**14, 2**17, rng_seed=1, model="rmat", **RMAT)
    outdeg: dict[int, int] = {}
    for u, _ in g.edges:
        outdeg[u] = outdeg.get(u, 0) + 1
    mean = len(g.edges) / g.vertex_count
    assert max(outdeg.values()) > 10 * mean


def test_graph_rmat_rejects_non_power_of_two():
    with pytest.raises(InvariantError, match="power-of-two vertex count"):
        make_genspec("graph", {"vertices": 100, "edges": 10, "model": "rmat"})


def test_graph_rmat_rejects_bad_probs():
    with pytest.raises(InvariantError, match="must sum to 1"):
        make_genspec("graph", {"vertices": 8, "edges": 4, "model": "rmat",
                               **dict.fromkeys("abcd", "0.5")})
    with pytest.raises(InvariantError, match="'a'=1.5 out of range"):
        make_genspec("graph", {"vertices": 8, "edges": 4, "model": "rmat", "a": "1.5"})


@pytest.mark.parametrize("vertices,edges,probs", [
    (1, 5, (0.57, 0.19, 0.19, 0.05)),  # zero levels: no draws
    (64, 300, (1.0, 0.0, 0.0, 0.0)),
    (64, 300, (0.0, 0.0, 0.0, 1.0)),
    (64, 300, (0.6, 0.0, 0.3, 0.1)),  # b = 0: two equal cuts
    (256, 500, (0.5, 0.25, 0.125, 0.125)),  # p * 2**53 is an integer
    (256, 500, (0.5, 0.25, 0.25 + 1e-10, 0.0)),  # a + b + c > 1
    (4096, 1000, (0.57, 0.19, 0.19, 0.05)),  # several blocks, the last one short
    (32, 2000, (0.45, 0.15, 0.15, 0.25)),
])
def test_graph_rmat_matches_scalar_loop(vertices, edges, probs):
    bulk, scalar = SplitMix64(77), SplitMix64(77)
    assert _rmat_edges(bulk, vertices.bit_length() - 1, edges, *probs[:3]) == \
        scalar_rmat_edges(scalar, vertices, edges, probs)
    assert bulk._state == scalar._state
    g = gen_graph(vertices, edges, 77, "rmat", *probs)
    assert list(g.edges) == scalar_rmat_edges(SplitMix64(77), vertices, edges, probs)


@pytest.mark.parametrize("levels", [1, 7, 8, 9, 12, 17, 33, 63])  # 8/16/32/64-bit endpoints
@pytest.mark.parametrize("probs", [(0.57, 0.19, 0.19, 0.05), (0.45, 0.15, 0.15, 0.25),
                                   (0.6, 0.0, 0.3, 0.1), (0.9, 0.05, 0.05, 0.0)])
@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_graph_rmat_every_endpoint_width_matches_scalar_loop(levels, probs, seed):
    # Two blocks of draws, the second one short, at every endpoint width.
    edges = BULK_BLOCK // levels + 3
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    assert _rmat_edges(bulk, levels, edges, *probs[:3]) == \
        scalar_rmat_edges(scalar, 1 << levels, edges, probs)
    assert bulk._state == scalar._state


class _ScriptedDraws(SplitMix64):
    """Serves fixed 64-bit draws, to both the bulk and the scalar path; the
    bulk path gets an array('Q'), as SplitMix64.u64s returns."""

    __slots__ = ("_draws",)

    def __init__(self, draws):
        super().__init__(0)
        self._draws = iter(draws)

    def next_u64(self):
        return next(self._draws)

    def u64s(self, n):
        return array("Q", [next(self._draws) for _ in range(n)])


@pytest.mark.parametrize("probs", [(0.57, 0.19, 0.19, 0.05), (0.5, 0.25, 0.125, 0.125),
                                   (0.6, 0.0, 0.3, 0.1)])
def test_graph_rmat_quadrant_cuts_exact_at_boundaries(probs):
    # Draws on and beside every point where random() crosses a cumulative
    # probability decide the same quadrant on both paths.
    a, b, c, _ = probs
    draws = [0, 2**64 - 1]
    for p in (a, a + b, a + b + c):
        edge = math.ceil(p * 2**53) << 11
        draws += [z for z in (edge - 2049, edge - 2048, edge - 1, edge, edge + 1, edge + 2047)
                  if 0 <= z < 2**64]
    assert _rmat_edges(_ScriptedDraws(draws), 1, len(draws), a, b, c) == \
        scalar_rmat_edges(_ScriptedDraws(draws), 2, len(draws), probs)


def test_graph_seed_outside_64_bits_rejected():
    with pytest.raises(ValueError):
        gen_graph(8, 4, rng_seed=-1, model="rmat", **RMAT)


# ---------------------------------------------------------------------------
# matrix / tensor


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-2.5, 3.0), (0.0, 255.0), (4.0, 4.0)])
def test_uniform_draws_equal_scalar_uniform(lo, hi):
    scalar = SplitMix64(19)
    assert _draws(19, 5000, "uniform", lo, hi, None, None) == \
        [scalar.uniform(lo, hi) for _ in range(5000)]


def test_matrix_uniform_degenerate_zero():
    m = gen_matrix(3, 3, rng_seed=4, dist="uniform", lo=0, hi=0)
    assert all(v == 0.0 for v in m.data)


def test_matrix_deterministic():
    a = gen_matrix(10, 10, rng_seed=12, dist="gaussian", mu=0, sigma=1)
    b = gen_matrix(10, 10, rng_seed=12, dist="gaussian", mu=0, sigma=1)
    assert checksum_payload(a) == checksum_payload(b)


def test_matrix_gaussian_moments():
    m = gen_matrix(1000, 1000, rng_seed=21, dist="gaussian", mu=0, sigma=1)
    n = len(m.data)
    mean = math.fsum(m.data) / n
    var = math.fsum((v - mean) ** 2 for v in m.data) / n
    assert abs(mean) < 0.01
    assert abs(var - 1.0) < 0.02


def test_matrix_uniform_bounds():
    m = gen_matrix(100, 100, rng_seed=31, dist="uniform", lo=-2, hi=3)
    assert all(-2 <= v < 3 for v in m.data)


def test_dist_validation():
    def matrix(**dist):
        return make_genspec("matrix", {"rows": 1, "cols": 1, **dist})

    with pytest.raises(InvariantError, match=r"uniform needs hi >= lo, got \[1.0, 0.0\]"):
        matrix(dist="uniform", lo=1, hi=0)
    with pytest.raises(InvariantError, match="parameter 'sigma'=0.0 out of range"):
        matrix(dist="gaussian", sigma=0)
    # equal bounds degenerate but legal
    assert matrix(dist="uniform", lo=2, hi=2).param_dict() == {
        "rows": 1, "cols": 1, "dist": "uniform", "lo": 2.0, "hi": 2.0}


def test_parse_dist():
    from motifbench.cli import _dist_flag

    def parse_dist(text):
        spec = make_genspec("matrix", {"rows": 1, "cols": 1, **_dist_flag(text)})
        return {k: v for k, v in spec.params if k not in ("rows", "cols")}

    assert parse_dist("uniform:0,1") == {"dist": "uniform", "lo": 0.0, "hi": 1.0}
    assert parse_dist("gaussian:3,0.5") == {"dist": "gaussian", "mu": 3.0, "sigma": 0.5}
    assert parse_dist("uniform") == {"dist": "uniform", "lo": 0.0, "hi": 1.0}
    with pytest.raises(InvariantError):
        parse_dist("poisson:3")
    with pytest.raises(InvariantError):
        parse_dist("uniform:1,2,3")


def test_tensor_shape_and_determinism():
    a = gen_tensor((2, 3, 4), rng_seed=8, dist="uniform", lo=0, hi=1)
    assert a.shape == (2, 3, 4)
    b = gen_tensor((2, 3, 4), rng_seed=8, dist="uniform", lo=0, hi=1)
    assert checksum_payload(a) == checksum_payload(b)


# ---------------------------------------------------------------------------
# table


def test_table_single_row_fk():
    order, item = gen_table(1, 1, rng_seed=2)
    assert item.rows[0][1] == order.rows[0][0] == 1


def test_table_amount_invariant_exact():
    _, item = gen_table(50, 500, rng_seed=6)
    number_i = column_index(item, "goods_number")
    price_i = column_index(item, "goods_price")
    amount_i = column_index(item, "goods_amount")
    for row in item.rows:
        assert row[amount_i] == row[number_i] * row[price_i]
        assert row[number_i] >= 1 and row[price_i] > 0


def test_table_foreign_keys_resolve_join_oracle():
    order, item = gen_table(200, 10_000, rng_seed=14)
    order_ids = {row[0] for row in order.rows}
    oid_i = column_index(item, "order_id")
    dangling = [row for row in item.rows if row[oid_i] not in order_ids]
    assert dangling == []
    assert len({row[0] for row in order.rows}) == len(order.rows)  # unique order ids
    assert len({row[0] for row in item.rows}) == len(item.rows)  # unique item ids


def test_table_deterministic():
    a = tuple(gen_table(20, 60, rng_seed=3))
    b = tuple(gen_table(20, 60, rng_seed=3))
    assert checksum_payload(a[0]) == checksum_payload(b[0])
    assert checksum_payload(a[1]) == checksum_payload(b[1])


# ---------------------------------------------------------------------------
# GenSpec / materialize


def test_genspec_matrix_materialize_matches_direct():
    spec = make_genspec("matrix", {"rows": 4, "cols": 5, "dist": "uniform", "lo": 0, "hi": 1, "seed": 7})
    ds = materialize(spec)
    direct = gen_matrix(4, 5, rng_seed=7, dist="uniform", lo=0, hi=1)
    assert ds.payload == direct


def test_genspec_tensor_holds_its_parsed_shape():
    assert make_genspec("tensor", {"shape": "2x3"}).param_dict()["shape"] == (2, 3)


def test_genspec_rejects_unknown_params():
    with pytest.raises(InvariantError):
        make_genspec("matrix", {"rows": 2, "cols": 2, "bogus": 1})


def test_genspec_rmat_sum_check():
    with pytest.raises(InvariantError):
        make_genspec("graph", {"vertices": 8, "edges": 4, "model": "rmat", "a": 0.9, "b": 0.9, "c": 0.1, "d": 0.1})


def test_genspec_table_which():
    spec = make_genspec("table", {"orders": 3, "items": 9, "which": "item", "seed": 1})
    ds = materialize(spec)
    assert ds.payload.schema[0][0] == "item_id"
    with pytest.raises(InvariantError):
        make_genspec("table", {"orders": 3, "items": 9, "which": "both"})


def _draw_counts(monkeypatch):
    """Draws made by each SplitMix64 that generators creates, read back from
    its first and last state as a tracer reads them."""
    made = []

    class Recorded(SplitMix64):
        __slots__ = ()

        def __init__(self, seed):
            super().__init__(seed)
            made.append((self, seed))

    monkeypatch.setattr(generators, "SplitMix64", Recorded)
    inverse = pow(0x9E3779B97F4A7C15, -1, 2**64)
    return lambda: [(rng._state - seed) * inverse % 2**64 for rng, seed in made]


@pytest.mark.parametrize("orders, items, seed", [(1, 1, 0), (3, 9, 1), (40, 120, 13),
                                                 (250, 60, 2**64 - 1), (7, 2000, 99)])
def test_materialize_table_builds_only_the_table_asked_for(orders, items, seed, monkeypatch):
    draws = _draw_counts(monkeypatch)
    order, item = gen_table(orders, items, seed)
    next(gen_table(orders, 0, seed))  # the ORDER draws alone
    pair_draws, order_draws = draws()
    for which, want, want_draws in (("order", order, order_draws), ("item", item, pair_draws)):
        spec = make_genspec("table", {"orders": orders, "items": items, "which": which,
                                      "seed": seed})
        assert materialize(spec).payload == want
        assert draws()[-1] == want_draws


@pytest.mark.parametrize("seed", [0, 1, 13, 2**64 - 1])
def test_materialize_item_builds_no_order_table(seed, monkeypatch):
    _, want = gen_table(40, 120, seed)
    built = []
    init = Table.__init__
    monkeypatch.setattr(Table, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    spec = make_genspec("table", {"orders": 40, "items": 120, "which": "item", "seed": seed})
    assert materialize(spec).payload == want
    assert [schema for schema, _ in built] == [generators.ITEM_SCHEMA]


def test_genspec_text_uses_seed_corpus_file(tmp_path):
    from motifbench.dataio import save_dataset

    seed = TextCorpus(["alpha beta gamma", "beta gamma delta"])
    path = tmp_path / "seed.txt"
    save_dataset(seed, str(path))
    spec = make_genspec("text", {"bytes": 2000, "corpus": "seed.txt", "seed": 4})
    ds = materialize(spec, base_dir=str(tmp_path))
    vocab = set(" ".join(ds.payload.documents).split())
    assert vocab <= {"alpha", "beta", "gamma", "delta"}


_INT_PARAMS = [
    ("text", {"bytes": 100}, "bytes"),
    ("graph", {"vertices": 8, "edges": 4}, "vertices"),
    ("graph", {"vertices": 8, "edges": 4}, "edges"),
    ("matrix", {"rows": 2, "cols": 3}, "rows"),
    ("matrix", {"rows": 2, "cols": 3}, "cols"),
    ("table", {"orders": 3, "items": 9}, "orders"),
    ("table", {"orders": 3, "items": 9}, "items"),
    ("matrix", {"rows": 2, "cols": 3}, "seed"),
]


@pytest.mark.parametrize("kind,params,key", _INT_PARAMS)
@pytest.mark.parametrize("bad", [2.7, 3.0, True, "2.5"])
def test_genspec_rejects_non_integral_values(kind, params, key, bad):
    with pytest.raises(InvariantError, match=f"'{key}' must be an integer"):
        make_genspec(kind, {**params, key: bad})


@pytest.mark.parametrize("kind,params,key", _INT_PARAMS)
def test_genspec_accepts_integer_strings(kind, params, key):
    spec = make_genspec(kind, {**params, key: "5"})
    assert (spec.rng_seed if key == "seed" else spec.param_dict()[key]) == 5


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_genspec_rejects_seed_outside_64_bits(seed):
    # SplitMix64 keeps only the low 64 bits, so these would alias other seeds.
    with pytest.raises(InvariantError, match="'seed'"):
        make_genspec("matrix", {"rows": 2, "cols": 2, "seed": seed})


def test_genspec_accepts_largest_seed():
    spec = make_genspec("matrix", {"rows": 2, "cols": 2, "seed": 2**64 - 1})
    assert spec.rng_seed == 2**64 - 1


@pytest.mark.parametrize("key", ["a", "b", "c", "d"])
def test_genspec_uniform_graph_rejects_rmat_probabilities(key):
    with pytest.raises(InvariantError, match=f"unknown parameter '{key}'"):
        make_genspec("graph", {"vertices": 8, "edges": 4, key: 0.9})
    spec = make_genspec("graph", {"vertices": 8, "edges": 4, "model": "rmat",
                                  **dict.fromkeys("abcd", 0.25)})
    assert spec.param_dict()[key] == 0.25


# ---------------------------------------------------------------------------
# pinned streams

# Output checksums of every generator kind at fixed seeds, recorded before
# any rewrite of the draw loops; a rewrite must reproduce them bit for bit.
# Gaussian draws go through the platform libm, so that one is checked only
# on the platform it was recorded on.
GENERATOR_GOLDENS = {
    "text": ("text", {"bytes": 4000, "seed": 11}, "6b8715d5db253f2a"),
    "graph-uniform": ("graph", {"vertices": 100, "edges": 400, "seed": 3}, "a16b3de3d6f2c18a"),
    "graph-rmat": ("graph", {"vertices": 256, "edges": 1024, "model": "rmat", "seed": 5},
                   "107ad5c22fe2b638"),
    "matrix-uniform": ("matrix", {"rows": 12, "cols": 10, "lo": -2.0, "hi": 3.0, "seed": 7},
                       "0cfc39957f916ea5"),
    "matrix-gaussian": ("matrix", {"rows": 12, "cols": 10, "dist": "gaussian", "mu": 1.0,
                                   "sigma": 2.0, "seed": 8}, "ba4861600ddd50a4"),
    "tensor": ("tensor", {"shape": "2x3x4x5", "seed": 9}, "30e2539022f89e95"),
    "table-order": ("table", {"orders": 40, "items": 120, "which": "order", "seed": 13},
                    "33b4c9044815e154"),
    "table-item": ("table", {"orders": 40, "items": 120, "which": "item", "seed": 13},
                   "2aa0058182174c69"),
}
LIBM_GENERATORS = {"matrix-gaussian"}


@pytest.mark.parametrize("name", sorted(GENERATOR_GOLDENS))
def test_generator_output_pinned(name):
    if name in LIBM_GENERATORS and _platform_fingerprint() != GOLDEN_PLATFORM:
        pytest.skip(f"{name} goes through libm; goldens recorded on {GOLDEN_PLATFORM}")
    kind, params, expected = GENERATOR_GOLDENS[name]
    payload = materialize(make_genspec(kind, params)).payload
    assert checksum_hex(checksum_payload(payload)) == expected
