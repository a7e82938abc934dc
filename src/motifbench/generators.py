"""Seeded, scalable dataset generators.

Every generator is a pure function of its GenSpec: identical parameters and
seed give checksum-identical output, because all randomness flows through the
integer SplitMix64 stream. Integer and uniform outputs are identical on any
platform; gaussian draws go through the platform libm (log, cos, sqrt), so
they are identical only on the same platform.

    text    bigram language model fitted on a seed corpus; emits lines until
            the byte target is met (within +/-5%)
    graph   recursive-quadrant (skewed) or uniform edge sampling
    matrix  i.i.d. uniform or gaussian entries
    tensor  same distributions over an arbitrary shape
    table   ORDER/ITEM pair with referentially intact foreign keys
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .datasets import (
    Dataset,
    Graph,
    Matrix,
    Provenance,
    Table,
    Tensor,
    TextCorpus,
)
from .errors import InvariantError
from .rng import SplitMix64

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
# distributions


@dataclass(frozen=True)
class Uniform:
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvariantError("uniform bounds must be finite")
        # hi == lo is legal and degenerates to a constant
        if self.hi < self.lo:
            raise InvariantError(f"uniform needs hi >= lo, got [{self.lo}, {self.hi}]")

    def draw(self, rng: SplitMix64) -> float:
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True)
class Gaussian:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise InvariantError("gaussian parameters must be finite")
        if self.sigma <= 0:
            raise InvariantError(f"gaussian needs sigma > 0, got {self.sigma}")

    def draw(self, rng: SplitMix64) -> float:
        return rng.gauss(self.mu, self.sigma)


def parse_dist(text: str):
    """'uniform:lo,hi' or 'gaussian:mu,sigma' (bare names take defaults)."""
    name, _, rest = text.partition(":")
    args = [a for a in rest.split(",") if a != ""] if rest else []
    try:
        values = [float(a) for a in args]
    except ValueError:
        raise InvariantError(f"bad distribution parameters in {text!r}") from None
    if name == "uniform":
        return Uniform(*values) if values else Uniform()
    if name == "gaussian":
        return Gaussian(*values) if values else Gaussian()
    raise InvariantError(f"unknown distribution {name!r}")


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


def _weighted_pick(rng: SplitMix64, words: list[str], weights: list[int], total: int) -> str:
    x = rng.below(total)
    acc = 0
    for w, c in zip(words, weights):
        acc += c
        if x < acc:
            return w
    return words[-1]


def gen_text(seed_corpus: TextCorpus, target_bytes: int, rng_seed: int) -> TextCorpus:
    """Corpus sampled from the seed's bigram model (unigram fallback for
    unseen contexts); vocabulary is a subset of the seed's; UTF-8 size lands
    within +/-5% of target_bytes."""
    if target_bytes <= 0:
        raise InvariantError(f"target_bytes must be > 0, got {target_bytes}")
    unigrams, successors, lengths = _fit_bigram(seed_corpus)
    if not unigrams:
        raise InvariantError("seed corpus has no tokens")
    uni_words = sorted(unigrams)
    uni_weights = [unigrams[w] for w in uni_words]
    uni_total = sum(uni_weights)
    succ_tables = {
        w: (sorted(d), [d[k] for k in sorted(d)], sum(d.values()))
        for w, d in successors.items()
    }

    rng = SplitMix64(rng_seed)
    hi_cap = target_bytes + max(1, target_bytes // 20)
    out_lines: list[str] = []
    total = 0
    while total < target_bytes:
        n_tokens = lengths[rng.below(len(lengths))]
        words = [_weighted_pick(rng, uni_words, uni_weights, uni_total)]
        for _ in range(n_tokens - 1):
            table = succ_tables.get(words[-1])
            if table:
                words.append(_weighted_pick(rng, *table))
            else:
                words.append(_weighted_pick(rng, uni_words, uni_weights, uni_total))
        size = len(" ".join(words).encode("utf-8")) + 1
        if total + size > hi_cap:
            while len(words) > 1 and total + len(" ".join(words).encode("utf-8")) + 1 > hi_cap:
                words.pop()
            size = len(" ".join(words).encode("utf-8")) + 1
            if total + size <= hi_cap:
                out_lines.append(" ".join(words))
                total += size
            break
        out_lines.append(" ".join(words))
        total += size
    return TextCorpus(out_lines)


# ---------------------------------------------------------------------------
# graph


def gen_graph(
    vertices: int,
    edges: int,
    model: str = "uniform",
    probs: tuple[float, float, float, float] = RMAT_DEFAULT,
    rng_seed: int = 0,
) -> Graph:
    """Directed graph with exactly `edges` edges.

    The 'rmat' model recursively picks quadrants of the adjacency matrix with
    probabilities (a, b, c, d), producing the skewed degree distributions of
    real web graphs; it needs a power-of-two vertex count. 'uniform' draws
    endpoints independently.
    """
    if vertices <= 0:
        raise InvariantError(f"vertices must be > 0, got {vertices}")
    if edges <= 0:
        raise InvariantError(f"edges must be > 0, got {edges}")
    rng = SplitMix64(rng_seed)
    if model == "uniform":
        edge_list = [(rng.below(vertices), rng.below(vertices)) for _ in range(edges)]
    elif model == "rmat":
        if vertices & (vertices - 1):
            raise InvariantError(f"rmat needs a power-of-two vertex count, got {vertices}")
        a, b, c, d = probs
        for p in probs:
            if not 0.0 <= p <= 1.0:
                raise InvariantError(f"rmat probabilities must be in [0, 1], got {probs}")
        if abs((a + b + c + d) - 1.0) > 1e-9:
            raise InvariantError(f"rmat probabilities must sum to 1, got {sum(probs)}")
        levels = vertices.bit_length() - 1
        ab, abc = a + b, a + b + c
        edge_list = []
        for _ in range(edges):
            u = v = 0
            for _ in range(levels):
                u <<= 1
                v <<= 1
                r = rng.random()
                if r < a:
                    pass
                elif r < ab:
                    v |= 1
                elif r < abc:
                    u |= 1
                else:
                    u |= 1
                    v |= 1
            edge_list.append((u, v))
    else:
        raise InvariantError(f"unknown graph model {model!r}")
    return Graph(vertices, edge_list, directed=True)


# ---------------------------------------------------------------------------
# matrix / tensor


def gen_matrix(rows: int, cols: int, dist, rng_seed: int) -> Matrix:
    if rows <= 0 or cols <= 0:
        raise InvariantError(f"matrix dimensions must be positive, got {rows}x{cols}")
    rng = SplitMix64(rng_seed)
    return Matrix(rows, cols, [dist.draw(rng) for _ in range(rows * cols)])


def gen_tensor(shape, dist, rng_seed: int) -> Tensor:
    dims = tuple(int(d) for d in shape)
    if not dims or any(d <= 0 for d in dims):
        raise InvariantError(f"tensor shape must be positive, got {dims}")
    size = 1
    for d in dims:
        size *= d
    rng = SplitMix64(rng_seed)
    return Tensor(dims, [dist.draw(rng) for _ in range(size)])


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


def gen_table(order_rows: int, item_rows: int, rng_seed: int) -> tuple[Table, Table]:
    """ORDER/ITEM pair; every ITEM.order_id resolves to an ORDER row and
    goods_amount is exactly goods_number * goods_price."""
    if order_rows <= 0 or item_rows <= 0:
        raise InvariantError(
            f"row counts must be > 0, got orders={order_rows}, items={item_rows}"
        )
    rng = SplitMix64(rng_seed)
    orders = []
    for oid in range(1, order_rows + 1):
        buyer = 1 + rng.below(max(1, order_rows))
        month = rng.below(12)
        day = 1 + rng.below(_DAYS_IN_MONTH[month])
        orders.append((oid, buyer, f"2023-{month + 1:02d}-{day:02d}"))
    items = []
    for iid in range(1, item_rows + 1):
        order_id = 1 + rng.below(order_rows)
        goods_id = 1 + rng.below(10000)
        number = 1 + rng.below(10)
        price = (1 + rng.below(99999)) / 100.0
        items.append((iid, order_id, goods_id, number, price, number * price))
    return Table(ORDER_SCHEMA, orders), Table(ITEM_SCHEMA, items)


# ---------------------------------------------------------------------------
# GenSpec: declarative form used by workload inputs and the CLI


@dataclass(frozen=True)
class GenSpec:
    kind: str
    rng_seed: int
    params: tuple[tuple[str, object], ...]

    def param_dict(self) -> dict:
        return dict(self.params)


_GEN_KINDS = ("text", "graph", "matrix", "tensor", "table")


def parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in str(text).split("x"))
    except ValueError:
        raise InvariantError(f"bad shape {text!r}, expected like 4x16x16x3") from None
    if not dims or any(d <= 0 for d in dims):
        raise InvariantError(f"shape dimensions must be positive, got {text!r}")
    return dims


def _dist_from_params(kind: str, p: dict) -> tuple[object, dict]:
    dist_name = str(p.pop("dist", "uniform"))
    if dist_name == "uniform":
        dist = Uniform(float(p.pop("lo", 0.0)), float(p.pop("hi", 1.0)))
        recorded = {"dist": "uniform", "lo": dist.lo, "hi": dist.hi}
    elif dist_name == "gaussian":
        dist = Gaussian(float(p.pop("mu", 0.0)), float(p.pop("sigma", 1.0)))
        recorded = {"dist": "gaussian", "mu": dist.mu, "sigma": dist.sigma}
    else:
        raise InvariantError(f"unknown distribution {dist_name!r} for generate.{kind}")
    return dist, recorded


def _pop_int(kind: str, p: dict, key: str) -> int:
    """Remove and return integer parameter `key` (default 0). Like kernel int
    parameters, it takes ints and integer strings; floats and bools are
    rejected rather than truncated."""
    value = p.pop(key, 0)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InvariantError(f"generate.{kind}: parameter {key!r} must be an integer, got {value!r}")


def make_genspec(kind: str, raw_params: dict) -> GenSpec:
    """Validate raw key=value parameters (as parsed from a workload spec or
    CLI flags) into a GenSpec; raises InvariantError on any bad value."""
    if kind not in _GEN_KINDS:
        raise InvariantError(f"unknown generator kind {kind!r}")
    p = dict(raw_params)
    seed = _pop_int(kind, p, "seed")

    norm: dict[str, object] = {}
    if kind == "text":
        norm["bytes"] = _pop_int(kind, p, "bytes")
        if norm["bytes"] <= 0:
            raise InvariantError("generate.text needs bytes > 0")
        corpus = p.pop("corpus", None)
        if corpus is not None:
            norm["corpus"] = str(corpus)
    elif kind == "graph":
        norm["vertices"] = _pop_int(kind, p, "vertices")
        norm["edges"] = _pop_int(kind, p, "edges")
        model = str(p.pop("model", "uniform"))
        if model not in ("uniform", "rmat"):
            raise InvariantError(f"unknown graph model {model!r}")
        norm["model"] = model
        probs = (
            float(p.pop("a", RMAT_DEFAULT[0])),
            float(p.pop("b", RMAT_DEFAULT[1])),
            float(p.pop("c", RMAT_DEFAULT[2])),
            float(p.pop("d", RMAT_DEFAULT[3])),
        )
        if model == "rmat":
            norm["a"], norm["b"], norm["c"], norm["d"] = probs
        if norm["vertices"] <= 0 or norm["edges"] <= 0:
            raise InvariantError("generate.graph needs vertices > 0 and edges > 0")
        if model == "rmat":
            if norm["vertices"] & (norm["vertices"] - 1):
                raise InvariantError(
                    f"rmat needs a power-of-two vertex count, got {norm['vertices']}"
                )
            for q in probs:
                if not 0.0 <= q <= 1.0:
                    raise InvariantError(f"rmat probabilities must be in [0, 1], got {probs}")
            if abs(sum(probs) - 1.0) > 1e-9:
                raise InvariantError(f"rmat probabilities must sum to 1, got {sum(probs)}")
    elif kind in ("matrix", "tensor"):
        if kind == "matrix":
            norm["rows"] = _pop_int(kind, p, "rows")
            norm["cols"] = _pop_int(kind, p, "cols")
            if norm["rows"] <= 0 or norm["cols"] <= 0:
                raise InvariantError("generate.matrix needs rows > 0 and cols > 0")
        else:
            norm["shape"] = "x".join(str(d) for d in parse_shape(p.pop("shape", "")))
        _, recorded = _dist_from_params(kind, p)
        norm.update(recorded)
    elif kind == "table":
        norm["orders"] = _pop_int(kind, p, "orders")
        norm["items"] = _pop_int(kind, p, "items")
        if norm["orders"] <= 0 or norm["items"] <= 0:
            raise InvariantError("generate.table needs orders > 0 and items > 0")
        which = str(p.pop("which", "order"))
        if which not in ("order", "item"):
            raise InvariantError(f"generate.table which must be order or item, got {which!r}")
        norm["which"] = which
    if p:
        raise InvariantError(f"generate.{kind}: unknown parameters {sorted(p)}")
    return GenSpec(kind, seed, tuple(sorted(norm.items())))


def result_kind(spec: GenSpec) -> str:
    return {"text": "text", "graph": "graph", "matrix": "matrix",
            "tensor": "tensor", "table": "table"}[spec.kind]


def materialize(spec: GenSpec, base_dir: str | None = None) -> Dataset:
    """Run the generator described by a GenSpec; attaches provenance."""
    p = spec.param_dict()
    if spec.kind == "text":
        if "corpus" in p:
            from .dataio import load_dataset  # local import avoids a cycle
            import os

            path = p["corpus"]
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            seed_ds = load_dataset(path)
            if not isinstance(seed_ds.payload, TextCorpus):
                raise InvariantError(f"seed corpus {path!r} is not a text corpus")
            seed_corpus = seed_ds.payload
        else:
            seed_corpus = DEFAULT_SEED_CORPUS
        payload = gen_text(seed_corpus, p["bytes"], spec.rng_seed)
    elif spec.kind == "graph":
        probs = (
            p.get("a", RMAT_DEFAULT[0]), p.get("b", RMAT_DEFAULT[1]),
            p.get("c", RMAT_DEFAULT[2]), p.get("d", RMAT_DEFAULT[3]),
        )
        payload = gen_graph(p["vertices"], p["edges"], p["model"], probs, spec.rng_seed)
    elif spec.kind == "matrix":
        dist = _dist_of(p)
        payload = gen_matrix(p["rows"], p["cols"], dist, spec.rng_seed)
    elif spec.kind == "tensor":
        dist = _dist_of(p)
        payload = gen_tensor(parse_shape(p["shape"]), dist, spec.rng_seed)
    elif spec.kind == "table":
        order, item = gen_table(p["orders"], p["items"], spec.rng_seed)
        payload = order if p["which"] == "order" else item
    else:
        raise InvariantError(f"unknown generator kind {spec.kind!r}")
    return Dataset(payload, Provenance(f"gen_{spec.kind}", spec.rng_seed, spec.params))


def _dist_of(p: dict):
    if p["dist"] == "uniform":
        return Uniform(p["lo"], p["hi"])
    return Gaussian(p["mu"], p["sigma"])
