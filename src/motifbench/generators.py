"""Seeded, scalable dataset generators.

Every generator is a pure function of its GenSpec: identical parameters and
seed give checksum-identical output, because all randomness flows through the
integer SplitMix64 stream. Integer and uniform outputs are identical on any
platform; gaussian draws go through the platform libm (log, cos, sqrt), so
they are identical only on the same platform.

    text    bigram language model fitted on a seed corpus; emits lines until
            the byte target is met (within +/-5% from 240 bytes; see gen_text)
    graph   recursive-quadrant (skewed) or uniform edge sampling
    matrix  i.i.d. uniform or gaussian entries
    tensor  same distributions over an arbitrary shape
    table   ORDER/ITEM pair with referentially intact foreign keys

make_genspec validates key=value parameters against one schema per kind,
with the ParamSpec/coerce checks kernels use (see params): counts are
integers >= 1, the seed lies in [0, 2**64), a graph takes the RMAT
probabilities a/b/c/d (each in [0, 1], summing to 1) only with model=rmat,
and a matrix or tensor takes lo/hi (hi >= lo) only with dist=uniform and
mu/sigma (sigma > 0) only with dist=gaussian. Unknown names are errors;
omitted ones take the schema defaults. A tensor's shape is parsed once, into
the tuple the GenSpec holds. Each gen_* function takes its schema's names as
arguments, so materialize calls it with the checked values by name, and it
trusts them.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import repeat
from operator import add, mul, truediv
from typing import Iterator, NamedTuple

from .dataio import load_dataset, resolve_path
from .datasets import (
    Dataset,
    Graph,
    Matrix,
    Table,
    Tensor,
    TextCorpus,
)
from .errors import InvariantError
from .floatsum import left_sum
from .params import ABOVE_ZERO, SEED, ParamSpec, coerce
from .rng import BULK_BLOCK, SplitMix64, cut_coder, random_cut

RMAT_DEFAULT = (0.57, 0.19, 0.19, 0.05)

# Fallback seed corpus for text generation when no external one is supplied;
# small but varied enough to exercise the bigram model.
DEFAULT_SEED_CORPUS = TextCorpus([
    "the pipeline reads records from disk and sorts them by key",
    "every worker scans its partition and counts the words it finds",
    "the scheduler assigns one task to each idle worker in turn",
    "a slow disk makes the whole pipeline wait for data",
    "the index maps each word to the documents that contain it",
    "queries hit the index first and touch the documents later",
    "the graph stores a directed edge for every link between pages",
    "rank flows along the edges until the scores settle down",
    "the sampler keeps a small fraction of the records for testing",
    "a filter drops the rows that fail the predicate",
    "the join matches orders with their items by shared keys",
    "aggregates reduce many rows to one summary row per group",
    "the cache holds hot rows so repeated reads stay fast",
    "cold data spills to disk when memory runs out",
    "each batch moves through the stages of the pipeline in order",
    "the final stage writes results back to durable storage",
    "hash tables spread the keys across buckets to balance work",
    "skewed keys overload one bucket and stall the rest",
    "the planner picks the cheapest order for the operators",
    "timing each stage shows where the pipeline spends its cycles",
    "a transform maps the signal into the frequency domain",
    "the inverse transform brings the signal back unchanged",
    "convolution slides a small window across the whole image",
    "pooling keeps the strongest response inside each window",
    "the dense layer mixes every feature into every output",
    "normalization keeps the activations near zero mean",
    "dropout zeroes a random subset of the features during training",
    "the model reads a batch of images and emits a score per class",
    "wide rows cost more bandwidth than narrow rows",
    "compressing the values trades compute for bandwidth",
])


# ---------------------------------------------------------------------------
# text


def _fit_bigram(seed_corpus: TextCorpus):
    # Bigrams are fitted over the whole token stream, crossing line
    # boundaries; otherwise line-initial words never appear as successors and
    # the generated frequencies drift away from the seed's.
    unigrams: dict[str, int] = {}
    successors: dict[str, dict[str, int]] = {}
    lengths: list[int] = []
    prev = None
    for line in seed_corpus.documents:
        tokens = line.split()
        if not tokens:
            continue
        lengths.append(len(tokens))
        for tok in tokens:
            unigrams[tok] = unigrams.get(tok, 0) + 1
            if prev is not None:
                bucket = successors.setdefault(prev, {})
                bucket[tok] = bucket.get(tok, 0) + 1
            prev = tok
    return unigrams, successors, lengths


def _choices(counts: dict[str, int]) -> list[str]:
    """Each word `count` times, the words in sorted order, so that a draw x
    in [0, total) picks the word whose running count total first exceeds x,
    with odds count / total. It holds one reference per seed token."""
    return [w for w in sorted(counts) for _ in range(counts[w])]


def gen_text(bytes: int, rng_seed: int, corpus: TextCorpus | None = None) -> TextCorpus:
    """Corpus sampled from the bigram model of the seed corpus (None for
    DEFAULT_SEED_CORPUS), with a unigram fallback for unseen contexts; the
    vocabulary is a subset of the seed's. The line that would pass
    bytes + max(1, bytes // 20) is cut word by word to fit, or dropped, so
    the UTF-8 size is at most that and more than `bytes` less the longest
    seed word (13 bytes in the built-in corpus): within +/-5% from 240 bytes
    on that corpus, while a smaller target can come out short, even empty."""
    unigrams, successors, lengths = _fit_bigram(DEFAULT_SEED_CORPUS if corpus is None else corpus)
    if not unigrams:
        raise InvariantError("seed corpus has no tokens")
    uni_choices = _choices(unigrams)
    succ_choices = {w: _choices(d) for w, d in successors.items()}

    hi_cap = bytes + max(1, bytes // 20)
    out_lines: list[str] = []
    total = 0
    # Each word's bound is the count total of its predecessor's successors.
    with SplitMix64(rng_seed).bounded() as below:
        while total < bytes:
            words: list[str] = []
            choices = uni_choices
            for _ in range(lengths[below(len(lengths))]):
                word = choices[below(len(choices))]
                words.append(word)
                choices = succ_choices.get(word, uni_choices)
            line = " ".join(words)
            size = len(line.encode("utf-8")) + 1
            if total + size > hi_cap:  # the last line: trim it to fit, or drop it
                while len(words) > 1 and total + size > hi_cap:
                    words.pop()
                    line = " ".join(words)
                    size = len(line.encode("utf-8")) + 1
                if total + size <= hi_cap:
                    out_lines.append(line)
                break
            out_lines.append(line)
            total += size
    return TextCorpus(out_lines)


# ---------------------------------------------------------------------------
# graph


def gen_graph(vertices: int, edges: int, rng_seed: int, model: str,
              a: float | None = None, b: float | None = None,
              c: float | None = None, d: float | None = None) -> Graph:
    """Directed graph with exactly `edges` edges.

    The 'rmat' model recursively picks quadrants of the adjacency matrix with
    probabilities a, b, c and d (the rest), producing the skewed degree
    distributions of real web graphs; it needs a power-of-two vertex count.
    'uniform' draws endpoints independently, u before v.
    """
    rng = SplitMix64(rng_seed)
    if model == "uniform":
        ends = iter(rng.belows((vertices,), 2 * edges))
        edge_list = list(zip(ends, ends))
    else:  # rmat
        edge_list = _rmat_edges(rng, vertices.bit_length() - 1, edges, a, b, c)
    return Graph(vertices, edge_list, directed=True)


# Quadrant code -> the bit each endpoint gains at one level: 0 keeps both
# bits 0, 1 sets v, 2 sets u, 3 sets both.
_RMAT_U_BIT = bytes.maketrans(bytes(range(4)), b"0011")
_RMAT_V_BIT = bytes.maketrans(bytes(range(4)), b"0101")
# Endpoint widths in bits, each with the array code of that item size.
_ENDPOINT_WIDTHS = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))


def _rmat_edges(rng: SplitMix64, levels: int, edges: int, a: float, b: float, c: float) -> list:
    """`edges` RMAT edges over 2**levels vertices, one draw per level, the
    first draw picking the top bit of each endpoint.

    A draw z falls in quadrant a, b, c or d by the first cumulative sum
    a, a+b, a+b+c that exceeds random() = (z >> 11) * 2**-53. Since that
    product is exact, r < p holds exactly when z < random_cut(p),
    so the quadrant is the number of such integer cuts at or below z, which
    `cut_coder` finds for a block of draws at a time. Each edge's u and v
    are then laid out as the two halves
    of a 2w-character string of binary digits, w the narrowest array width
    that holds `levels` bits, and one `int(..., 2)` turns the block into the
    big-endian words of an array. Draws come in blocks of BULK_BLOCK //
    levels edges, which bounds the memory a block takes.
    """
    if levels == 0:
        return [(0, 0)] * edges
    quadrants = cut_coder([random_cut(p) for p in (a, a + b, a + b + c)])
    width, code = next(wc for wc in _ENDPOINT_WIDTHS if wc[0] >= levels)
    stride = 2 * width
    per_block = max(1, BULK_BLOCK // levels)
    out = []
    for start in range(0, edges, per_block):
        count = min(per_block, edges - start)
        codes = quadrants(rng.u64s(count * levels))
        u_bits, v_bits = codes.translate(_RMAT_U_BIT), codes.translate(_RMAT_V_BIT)
        digits = bytearray(b"0") * (count * stride)
        for level in range(levels):
            digits[width - levels + level :: stride] = u_bits[level::levels]
            digits[stride - levels + level :: stride] = v_bits[level::levels]
        ends = array(code, int(digits, 2).to_bytes(count * stride // 8, "big"))
        if width > 8 and sys.byteorder == "little":
            ends.byteswap()
        out += zip(ends[0::2], ends[1::2])
    return out


# ---------------------------------------------------------------------------
# matrix / tensor


# Per-distribution parameters, in positional order for `--dist name:v1,v2`.
DISTRIBUTIONS = {
    "uniform": {"lo": ParamSpec("float", default=0.0), "hi": ParamSpec("float", default=1.0)},
    "gaussian": {
        "mu": ParamSpec("float", default=0.0),
        "sigma": ParamSpec("float", default=1.0, lo=ABOVE_ZERO),
    },
}


def _draws(rng_seed: int, n: int, dist: str, lo, hi, mu, sigma) -> list[float]:
    """n values of rng.uniform(lo, hi) from one bulk draw, or n Box-Muller
    draws in bulk (see SplitMix64.gausses)."""
    rng = SplitMix64(rng_seed)
    if dist == "uniform":
        span = hi - lo
        return [lo + span * ((z >> 11) * (1.0 / (1 << 53))) for z in rng.u64s(n)]
    return rng.gausses(n, mu, sigma)


def gen_matrix(rows: int, cols: int, rng_seed: int, dist: str, lo: float | None = None,
               hi: float | None = None, mu: float | None = None,
               sigma: float | None = None) -> Matrix:
    return Matrix(rows, cols, _draws(rng_seed, rows * cols, dist, lo, hi, mu, sigma))


def gen_tensor(shape: tuple[int, ...], rng_seed: int, dist: str, lo: float | None = None,
               hi: float | None = None, mu: float | None = None,
               sigma: float | None = None) -> Tensor:
    return Tensor(shape, _draws(rng_seed, math.prod(shape), dist, lo, hi, mu, sigma))


# ---------------------------------------------------------------------------
# table


ORDER_SCHEMA = (("order_id", "integer"), ("buyer_id", "integer"), ("create_date", "string"))
ITEM_SCHEMA = (
    ("item_id", "integer"),
    ("order_id", "integer"),
    ("goods_id", "integer"),
    ("goods_number", "integer"),
    ("goods_price", "real"),
    ("goods_amount", "real"),
)

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _order_columns(rng: SplitMix64, orders: int) -> tuple:
    """ORDER's columns: each row draws its buyer and create_date by
    bounded() (a day's bound depends on the month drawn before it)."""
    buyers, dates = [], []
    with rng.bounded() as below:
        for _ in range(orders):
            buyers.append(1 + below(orders))
            month = below(12)
            dates.append(f"2023-{month + 1:02d}-{1 + below(_DAYS_IN_MONTH[month]):02d}")
    return range(1, orders + 1), buyers, dates


def _item_table(rng: SplitMix64, orders: int, items: int) -> Table:
    """ITEM: each row draws its order, goods, number and price cents, each
    1 + a draw."""
    cells = list(map(add, rng.belows((orders, 10000, 10, 99999), items), repeat(1)))
    numbers = cells[2::4]
    prices = list(map(truediv, cells[3::4], repeat(100.0)))
    return Table(ITEM_SCHEMA, (range(1, items + 1), cells[0::4], cells[1::4],
                               numbers, prices, map(mul, numbers, prices)))


def gen_table(orders: int, items: int, rng_seed: int) -> Iterator[Table]:
    """ORDER, then ITEM, each drawn and built only when taken from the
    iterator, ITEM's rows from the same stream after ORDER's; every
    ITEM.order_id resolves to an ORDER row and goods_amount is exactly
    goods_number * goods_price."""
    rng = SplitMix64(rng_seed)
    yield Table(ORDER_SCHEMA, _order_columns(rng, orders))
    yield _item_table(rng, orders, items)


# ---------------------------------------------------------------------------
# GenSpec: declarative form used by workload inputs and the CLI


class GenSpec(NamedTuple):
    kind: str
    rng_seed: int
    params: tuple[tuple[str, object], ...]  # checked values; a tensor's shape as a tuple

    def param_dict(self) -> dict:
        return dict(self.params)


def parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in str(text).split("x"))
    except ValueError:
        raise InvariantError(f"bad shape {text!r}, expected like 4x16x16x3") from None
    if not dims or any(d <= 0 for d in dims):
        raise InvariantError(f"shape dimensions must be positive, got {text!r}")
    return dims


_COUNT = ParamSpec("int", required=True, lo=1)
_DIST = ParamSpec("str", default="uniform", choices=tuple(DISTRIBUTIONS))

# One schema per generator kind. RMAT probabilities exist only for
# model=rmat, and each distribution's parameters only under its own dist=.
_SCHEMAS = {
    "text": {"bytes": _COUNT, "corpus": ParamSpec("str"), "seed": SEED},
    "graph": {
        # Graph holds vertex ids in 64 bits, and below() bounds at most 2**64.
        "vertices": ParamSpec("int", required=True, lo=1, hi=2**64 - 1),
        "edges": _COUNT,
        "model": ParamSpec("str", default="uniform", choices=("uniform", "rmat")),
        "seed": SEED,
    },
    "matrix": {"rows": _COUNT, "cols": _COUNT, "dist": _DIST, "seed": SEED},
    "tensor": {"shape": ParamSpec("str", required=True), "dist": _DIST, "seed": SEED},
    "table": {
        "orders": _COUNT,
        "items": _COUNT,
        "which": ParamSpec("str", default="order", choices=("order", "item")),
        "seed": SEED,
    },
}
_RMAT_PARAMS = {
    k: ParamSpec("float", default=v, lo=0.0, hi=1.0) for k, v in zip("abcd", RMAT_DEFAULT)
}


def make_genspec(kind: str, raw_params: dict) -> GenSpec:
    """Validate raw key=value parameters (as parsed from a workload spec or
    CLI flags) into a GenSpec; raises InvariantError on any bad value."""
    if kind not in _SCHEMAS:
        raise InvariantError(f"unknown generator kind {kind!r}")
    schema = dict(_SCHEMAS[kind])
    if kind == "graph" and raw_params.get("model") == "rmat":
        schema.update(_RMAT_PARAMS)
    if "dist" in schema:
        schema.update(DISTRIBUTIONS.get(str(raw_params.get("dist", "uniform")), {}))
    p = coerce(schema, raw_params, f"generate.{kind}", InvariantError)

    if kind == "graph" and p["model"] == "rmat":
        if p["vertices"] & (p["vertices"] - 1):
            raise InvariantError(f"rmat needs a power-of-two vertex count, got {p['vertices']}")
        total = left_sum(p[k] for k in "abcd")
        if abs(total - 1.0) > 1e-9:
            raise InvariantError(f"rmat probabilities must sum to 1, got {total}")
    elif kind == "tensor":
        p["shape"] = parse_shape(p["shape"])
    # hi == lo is legal and degenerates to a constant
    if p.get("dist") == "uniform" and p["hi"] < p["lo"]:
        raise InvariantError(f"uniform needs hi >= lo, got [{p['lo']}, {p['hi']}]")
    seed = p.pop("seed")
    return GenSpec(kind, seed, tuple(sorted((k, v) for k, v in p.items() if v is not None)))


def materialize(spec: GenSpec, base_dir: str | None = None) -> Dataset:
    """Run the generator described by a GenSpec: gen_<kind>, looked up in the
    module at call time, with the checked params by name; a table's `which`
    takes ORDER from gen_table's pair, or draws ITEM after ORDER's draws
    without building ORDER's table."""
    p = spec.param_dict()
    if "corpus" in p:
        path = resolve_path(p["corpus"], base_dir)
        p["corpus"] = load_dataset(path).payload
        if not isinstance(p["corpus"], TextCorpus):
            raise InvariantError(f"seed corpus {path!r} is not a text corpus")
    which = p.pop("which", None)
    if which == "item":
        rng = SplitMix64(spec.rng_seed)
        _order_columns(rng, p["orders"])
        return Dataset(_item_table(rng, **p))
    made = globals()[f"gen_{spec.kind}"](**p, rng_seed=spec.rng_seed)
    return Dataset(made if which is None else next(made))
