"""Pinned draw streams: the outputs of every per-value draw loop, and the
draws each one leaves on its SplitMix64.

The checksums and draw counts were recorded from the one-draw-per-call loops
of the scalar oracles; a bulk rewrite of those loops must reproduce both, so
that the output bits and each generator's final state stay the same.
"""

import pytest

from motifbench import rng as rng_module
from motifbench.dataio import checksum_hex, checksum_payload
from motifbench.datasets import Table, Tensor, TextCorpus
from motifbench.generators import (
    DEFAULT_SEED_CORPUS,
    ITEM_SCHEMA,
    ORDER_SCHEMA,
    gen_graph,
    gen_table,
    gen_tensor,
    gen_text,
)
from motifbench.kernels.sampling import dropout, random_sample
from motifbench.rng import SplitMix64

from .oracles import (
    scalar_dropout,
    scalar_keep,
    scalar_order_item_rows,
    scalar_text_lines,
    scalar_uniform_edges,
    table_of_rows,
)

_INVERSE_GAMMA = pow(rng_module._GAMMA, -1, 2**64)


def _draws(start: int, state: int) -> int:
    return (state - start) * _INVERSE_GAMMA % 2**64


@pytest.fixture
def made(monkeypatch):
    """(instance, seed) of each SplitMix64 made while the test runs."""
    made = []
    original = SplitMix64.__init__

    def init(inst, seed):
        original(inst, seed)
        made.append((inst, seed))

    monkeypatch.setattr(SplitMix64, "__init__", init)
    return made


def _only_draws(made) -> int:
    (inst, seed), = made
    return _draws(seed, inst._state)


# (orders, items, seed) -> ORDER checksum, ITEM checksum, draws
TABLE_PINS = {
    (40, 120, 13): ("33b4c9044815e154", "2aa0058182174c69", 937),
    (700, 3000, 2**64 - 1): ("a947c675dbe0fbd8", "5f300ab56311c4b6", 20_664),
}


@pytest.mark.parametrize("orders, items, seed", sorted(TABLE_PINS))
def test_gen_table_pinned(orders, items, seed, made):
    order_sum, item_sum, draws = TABLE_PINS[orders, items, seed]
    order, item = gen_table(orders, items, seed)
    assert (checksum_hex(checksum_payload(order)), checksum_hex(checksum_payload(item))) == \
        (order_sum, item_sum)
    assert _only_draws(made) == draws
    oracle = SplitMix64(seed)
    order_rows, item_rows = scalar_order_item_rows(oracle, orders, items)
    assert order == table_of_rows(ORDER_SCHEMA, order_rows)
    assert item == table_of_rows(ITEM_SCHEMA, item_rows)
    assert made[0][0]._state == oracle._state


# (vertices, edges, seed) -> checksum, draws
UNIFORM_GRAPH_PINS = {
    (100, 400, 3): ("a16b3de3d6f2c18a", 1018),
    (2**64 - 1, 3000, 2**63 + 5): ("54c54a2d61d0b095", 6000),  # every bit of every draw kept
    (1, 50, 8): ("e4111bee31b3a671", 0),  # below(1) draws nothing
    (5000, 6000, 0): ("69f8b06373ac23f1", 19_580),
}


@pytest.mark.parametrize("vertices, edges, seed", sorted(UNIFORM_GRAPH_PINS))
def test_uniform_graph_pinned(vertices, edges, seed, made):
    checksum, draws = UNIFORM_GRAPH_PINS[vertices, edges, seed]
    g = gen_graph(vertices, edges, seed, "uniform")
    assert checksum_hex(checksum_payload(g)) == checksum
    assert _only_draws(made) == draws
    oracle = SplitMix64(seed)
    assert list(g.edges) == scalar_uniform_edges(oracle, vertices, edges)
    assert made[0][0]._state == oracle._state


# (bytes, seed) -> checksum, draws
TEXT_PINS = {
    (4000, 11): ("6b8715d5db253f2a", 620),
    (120_000, 2**64 - 1): ("b94b049870ce9c5a", 18_600),
}


@pytest.mark.parametrize("target, seed", sorted(TEXT_PINS))
def test_gen_text_pinned(target, seed, made):
    checksum, draws = TEXT_PINS[target, seed]
    corpus = gen_text(target, seed)
    assert checksum_hex(checksum_payload(corpus)) == checksum
    assert _only_draws(made) == draws
    oracle = SplitMix64(seed)
    assert list(corpus.documents) == \
        scalar_text_lines(DEFAULT_SEED_CORPUS.documents, target, oracle)
    assert made[0][0]._state == oracle._state


def _size(lines) -> int:
    return sum(len(line.encode("utf-8")) + 1 for line in lines)


def test_gen_text_last_line_trim_matches_the_oracle_for_small_targets():
    # Every target draws the same stream of lines; a corpus is a prefix of it,
    # ended by the line that would overshoot, cut word by word or dropped.
    longest = max(len(w.encode("utf-8")) for d in DEFAULT_SEED_CORPUS.documents for w in d.split())
    ends = set()
    for seed in range(4):
        stream = gen_text(100_000, seed).documents
        for target in range(1, 201):
            lines = gen_text(target, seed).documents
            assert list(lines) == \
                scalar_text_lines(DEFAULT_SEED_CORPUS.documents, target, SplitMix64(seed))
            assert target - longest < _size(lines) <= target + max(1, target // 20)
            if lines and lines[-1] != stream[len(lines) - 1]:
                ends.add("trimmed")
            elif _size(lines) < target:
                ends.add("dropped")
    assert ends == {"trimmed", "dropped"}
    # below about 60 bytes the +/-5% does not hold
    assert [_size(gen_text(t, s).documents) for t, s in ((5, 2), (1, 1), (1, 2), (1, 3),
                                                          (30, 3), (10, 1))] == [0, 0, 0, 0, 24, 11]


def _corpus(lines: int) -> TextCorpus:
    return TextCorpus(f"line {i}" for i in range(lines))


def _table(rows: int) -> Table:
    return tuple(gen_table(max(1, rows // 4), rows, 2))[1]


# (input, size, fraction, seed) -> checksum, draws
SAMPLE_PINS = {
    ("corpus", 300, 0.3, 5): ("38dc11fc8d632a52", 300),
    ("corpus", 5000, 0.75, 2**64 - 1): ("e2f4860df789ee8e", 5000),
    ("table", 200, 0.5, 1): ("1377c251b46c4b45", 200),
    ("table", 4500, 0.1, 2**40): ("01cb8b18f83cc6e0", 4500),
    ("table", 100, 1.0, 9): ("e94e2b74cc9d71e2", 100),
    ("corpus", 100, 0.0, 9): ("697ecb13def6ba67", 100),
}


@pytest.mark.parametrize("kind, size, fraction, seed", sorted(SAMPLE_PINS))
def test_random_sample_pinned(kind, size, fraction, seed, made):
    checksum, draws = SAMPLE_PINS[kind, size, fraction, seed]
    data = _corpus(size) if kind == "corpus" else _table(size)
    made.clear()
    out = random_sample(data, fraction, seed)
    assert checksum_hex(checksum_payload(out)) == checksum
    assert _only_draws(made) == draws
    oracle = SplitMix64(seed)
    if kind == "corpus":
        assert list(out.documents) == scalar_keep(oracle, data.documents, fraction)
    else:
        assert out.rows == tuple(scalar_keep(oracle, data.rows, fraction))
    assert made[0][0]._state == oracle._state


# (shape, p, seed) -> checksum, draws
DROPOUT_PINS = {
    ((2, 3, 4, 5), 0.5, 3): ("35c6b6a1a0525181", 120),
    ((4, 16, 16, 3), 0.1, 2**64 - 1): ("5307043643a7336f", 3072),
    ((3, 7), 0.0, 4): ("3b600e81cc75bc2f", 21),
}


@pytest.mark.parametrize("shape, p, seed", sorted(DROPOUT_PINS))
def test_dropout_pinned(shape, p, seed, made):
    checksum, draws = DROPOUT_PINS[shape, p, seed]
    x = gen_tensor(shape, 17, "uniform", lo=-1.0, hi=1.0)
    made.clear()
    out = dropout(x, p, seed)
    assert checksum_hex(checksum_payload(out)) == checksum
    assert _only_draws(made) == draws
    oracle = SplitMix64(seed)
    assert out == Tensor(shape, scalar_dropout(oracle, x.data, p))
    assert made[0][0]._state == oracle._state
