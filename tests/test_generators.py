import math
import random

import pytest

from motifbench.dataio import checksum_payload
from motifbench.datasets import TextCorpus
from motifbench.errors import InvariantError
from motifbench.generators import (
    DEFAULT_SEED_CORPUS,
    Gaussian,
    GenSpec,
    Uniform,
    gen_graph,
    gen_matrix,
    gen_table,
    gen_tensor,
    gen_text,
    make_dist,
    make_genspec,
    materialize,
)


# ---------------------------------------------------------------------------
# text


def test_text_degenerate_seed_vocabulary():
    seed = TextCorpus(["x x x", "x"])
    out = gen_text(seed, 500, rng_seed=1)
    assert out.documents
    assert set(" ".join(out.documents).split()) == {"x"}


def test_text_deterministic():
    a = gen_text(DEFAULT_SEED_CORPUS, 10_000, rng_seed=42)
    b = gen_text(DEFAULT_SEED_CORPUS, 10_000, rng_seed=42)
    assert checksum_payload(a) == checksum_payload(b)
    c = gen_text(DEFAULT_SEED_CORPUS, 10_000, rng_seed=43)
    assert checksum_payload(a) != checksum_payload(c)


def test_text_size_within_five_percent():
    for target in (2_000, 50_000, 300_000):
        out = gen_text(DEFAULT_SEED_CORPUS, target, rng_seed=7)
        size = sum(len(line.encode()) + 1 for line in out.documents)
        assert 0.95 * target <= size <= 1.05 * target


def test_text_vocabulary_subset_of_seed():
    out = gen_text(DEFAULT_SEED_CORPUS, 20_000, rng_seed=3)
    seed_vocab = set(" ".join(DEFAULT_SEED_CORPUS.documents).split())
    assert set(" ".join(out.documents).split()) <= seed_vocab


def test_text_unigram_total_variation_at_1mb():
    out = gen_text(DEFAULT_SEED_CORPUS, 1_000_000, rng_seed=11)

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
        gen_text(TextCorpus([]), 100, rng_seed=0)
    with pytest.raises(InvariantError):
        gen_text(TextCorpus(["", "   "]), 100, rng_seed=0)


# ---------------------------------------------------------------------------
# graph


def test_graph_uniform_tiny():
    g = gen_graph(2, 1, model="uniform", rng_seed=5)
    assert g.vertex_count == 2 and len(g.edges) == 1
    u, v = g.edges[0]
    assert 0 <= u < 2 and 0 <= v < 2


def test_graph_exact_edge_count_and_range():
    g = gen_graph(256, 4096, model="rmat", rng_seed=9)
    assert len(g.edges) == 4096
    assert all(0 <= u < 256 and 0 <= v < 256 for u, v in g.edges)


def test_graph_deterministic():
    a = gen_graph(128, 1000, model="rmat", rng_seed=2)
    b = gen_graph(128, 1000, model="rmat", rng_seed=2)
    assert checksum_payload(a) == checksum_payload(b)


def test_graph_rmat_skew():
    g = gen_graph(2**14, 2**17, model="rmat", rng_seed=1)
    outdeg: dict[int, int] = {}
    for u, _ in g.edges:
        outdeg[u] = outdeg.get(u, 0) + 1
    mean = len(g.edges) / g.vertex_count
    assert max(outdeg.values()) > 10 * mean


def test_graph_rmat_rejects_non_power_of_two():
    with pytest.raises(InvariantError):
        gen_graph(100, 10, model="rmat", rng_seed=0)


def test_graph_rmat_rejects_bad_probs():
    with pytest.raises(InvariantError):
        gen_graph(8, 4, model="rmat", probs=(0.5, 0.5, 0.5, 0.5), rng_seed=0)


# ---------------------------------------------------------------------------
# matrix / tensor


def test_matrix_uniform_degenerate_zero():
    m = gen_matrix(3, 3, Uniform(0, 0), rng_seed=4)
    assert all(v == 0.0 for v in m.data)


def test_matrix_deterministic():
    a = gen_matrix(10, 10, Gaussian(0, 1), rng_seed=12)
    b = gen_matrix(10, 10, Gaussian(0, 1), rng_seed=12)
    assert checksum_payload(a) == checksum_payload(b)


def test_matrix_gaussian_moments():
    m = gen_matrix(1000, 1000, Gaussian(0, 1), rng_seed=21)
    n = len(m.data)
    mean = math.fsum(m.data) / n
    var = math.fsum((v - mean) ** 2 for v in m.data) / n
    assert abs(mean) < 0.01
    assert abs(var - 1.0) < 0.02


def test_matrix_uniform_bounds():
    m = gen_matrix(100, 100, Uniform(-2, 3), rng_seed=31)
    assert all(-2 <= v < 3 for v in m.data)


def test_dist_validation():
    with pytest.raises(InvariantError):
        Uniform(1, 0)  # hi < lo
    with pytest.raises(InvariantError):
        Gaussian(0, 0)  # sigma must be positive
    Uniform(2, 2)  # equal bounds degenerate but legal


def test_parse_dist():
    from motifbench.cli import _dist_flag

    def parse_dist(text):
        spec = make_genspec("matrix", {"rows": 1, "cols": 1, **_dist_flag(text)})
        return make_dist(spec.param_dict())

    assert parse_dist("uniform:0,1") == Uniform(0, 1)
    assert parse_dist("gaussian:3,0.5") == Gaussian(3, 0.5)
    assert parse_dist("uniform") == Uniform()
    with pytest.raises(InvariantError):
        parse_dist("poisson:3")
    with pytest.raises(InvariantError):
        parse_dist("uniform:1,2,3")


def test_tensor_shape_and_determinism():
    a = gen_tensor((2, 3, 4), Uniform(0, 1), rng_seed=8)
    assert a.shape == (2, 3, 4)
    b = gen_tensor((2, 3, 4), Uniform(0, 1), rng_seed=8)
    assert checksum_payload(a) == checksum_payload(b)


# ---------------------------------------------------------------------------
# table


def test_table_single_row_fk():
    order, item = gen_table(1, 1, rng_seed=2)
    assert item.rows[0][1] == order.rows[0][0] == 1


def test_table_amount_invariant_exact():
    _, item = gen_table(50, 500, rng_seed=6)
    number_i = item.column_index("goods_number")
    price_i = item.column_index("goods_price")
    amount_i = item.column_index("goods_amount")
    for row in item.rows:
        assert row[amount_i] == row[number_i] * row[price_i]
        assert row[number_i] >= 1 and row[price_i] > 0


def test_table_foreign_keys_resolve_join_oracle():
    order, item = gen_table(200, 10_000, rng_seed=14)
    order_ids = {row[0] for row in order.rows}
    oid_i = item.column_index("order_id")
    dangling = [row for row in item.rows if row[oid_i] not in order_ids]
    assert dangling == []
    assert len({row[0] for row in order.rows}) == len(order.rows)  # unique order ids
    assert len({row[0] for row in item.rows}) == len(item.rows)  # unique item ids


def test_table_deterministic():
    a = gen_table(20, 60, rng_seed=3)
    b = gen_table(20, 60, rng_seed=3)
    assert checksum_payload(a[0]) == checksum_payload(b[0])
    assert checksum_payload(a[1]) == checksum_payload(b[1])


# ---------------------------------------------------------------------------
# GenSpec / materialize


def test_genspec_matrix_materialize_matches_direct():
    spec = make_genspec("matrix", {"rows": 4, "cols": 5, "dist": "uniform", "lo": 0, "hi": 1, "seed": 7})
    ds = materialize(spec)
    direct = gen_matrix(4, 5, Uniform(0, 1), rng_seed=7)
    assert ds.payload == direct
    assert ds.provenance.generator == "gen_matrix"
    assert ds.provenance.rng_seed == 7


def test_genspec_rejects_unknown_params():
    with pytest.raises(InvariantError):
        make_genspec("matrix", {"rows": 2, "cols": 2, "bogus": 1})


def test_genspec_rmat_sum_check():
    with pytest.raises(InvariantError):
        make_genspec("graph", {"vertices": 8, "edges": 4, "model": "rmat", "a": 0.9, "b": 0.9, "c": 0.1, "d": 0.1})


def test_genspec_table_which():
    spec = make_genspec("table", {"orders": 3, "items": 9, "which": "item", "seed": 1})
    ds = materialize(spec)
    assert ds.payload.column_names()[0] == "item_id"
    with pytest.raises(InvariantError):
        make_genspec("table", {"orders": 3, "items": 9, "which": "both"})


def test_genspec_text_uses_seed_corpus_file(tmp_path):
    from motifbench.dataio import save_dataset
    from motifbench.datasets import Dataset

    seed = TextCorpus(["alpha beta gamma", "beta gamma delta"])
    path = tmp_path / "seed.txt"
    save_dataset(Dataset(seed), str(path))
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
