"""Per-layer spans recorded from outside motifbench.

The tracer wraps the public functions of each motifbench module, patching the
name where its caller looks it up (the workload module imports the dataio
functions into its own namespace, the CLI calls modules through their
attributes). Each wrapper is a span: its self time is its duration minus the
spans it encloses. Per-invocation kernel times need no wrapping: the tracer
reads them from the RunReport records that `workload.execute` returns and
treats them as children of the execute span.

RNG draws are counted without wrapping the per-draw call: SplitMix64 advances
its state by a fixed odd constant per draw, so the number of draws an
instance made follows from its first and last state.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from motifbench import cli, generators, rng, similarity, topdown, workload

_MASK64 = (1 << 64) - 1
_GAMMA_INVERSE = pow(rng._GAMMA, -1, 1 << 64)

FAMILIES = ("matrix", "sampling", "transform", "graph", "logic", "set", "sort", "statistic")


def canonical_size(payload) -> int:
    """Byte length of the canonical encoding of a generated payload, worked
    out from its shape (the layout `dataio.canonical_bytes` writes)."""
    name = type(payload).__name__
    if name == "TextCorpus":
        return 13 + sum(8 + len(line.encode("utf-8")) for line in payload.documents)
    if name == "Matrix":
        return 21 + 8 * len(payload.data)
    if name == "Tensor":
        return 13 + 8 * len(payload.shape) + 8 * len(payload.data)
    if name == "Graph":
        return 22 + 16 * len(payload.edges)
    return 0


class _Frame:
    __slots__ = ("child_ns", "children")

    def __init__(self):
        self.child_ns = 0
        self.children: dict[str, int] = defaultdict(int)


class Tracer:
    """Accumulates per-layer self times (ns) and counters while installed."""

    def __init__(self):
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []
        self._rngs: list[tuple[object, int]] = []
        self.reset()

    def reset(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._rngs.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        stack = self._stack

        def span(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - t0
                stack.pop()
            if on_return is not None:
                on_return(frame, duration, result, args)
            self.self_ns[name] += duration - frame.child_ns
            self.total_ns[name] += duration
            self.counts[name] += 1
            if stack:
                stack[-1].child_ns += duration
                stack[-1].children[name] += duration
            return result

        return span

    def _on_execute(self, frame: _Frame, duration: int, reports, args):
        kernel_ns = 0
        for report in reports:
            for rec in report.invocations:
                family = rec.motif.split(".", 1)[0]
                self.self_ns[f"kernels.{family}"] += rec.wall_ns
                self.counts["kernels.in_bytes"] += rec.in_bytes
                self.counts[f"motif_ns.{rec.motif}"] += rec.wall_ns
                self.counts[f"motif_bytes.{rec.motif}"] += rec.in_bytes
                kernel_ns += rec.wall_ns
        frame.child_ns += kernel_ns
        outside = sum(frame.children[n] for n in
                      ("generators.materialize", "dataio.load", "dataio.save"))
        self.counts["workload.overhead_ns"] += duration - kernel_ns - outside

    def _on_materialize(self, frame, duration, dataset, args):
        self.counts["generators.bytes"] += canonical_size(dataset.payload)

    def _on_size(self, frame, duration, size, args):
        self.counts["dataio.size_bytes"] += size

    def _on_load(self, frame, duration, dataset, args):
        self.counts["dataio.load_bytes"] += os.path.getsize(args[0])

    def _on_save(self, frame, duration, result, args):
        self.counts["dataio.save_bytes"] += os.path.getsize(args[1])

    def _on_standardize(self, frame, duration, result, args):
        self.counts["similarity.vectors"] += len(args[0])

    def _targets(self):
        other_topdown = ("builtin_tree", "average_samples", "ipc", "mlp", "ms_uops_ratio",
                         "to_metric_vector", "breakdown_to_json")
        other_similarity = ("append_vector_csv", "write_vectors_csv", "cut_dendrogram",
                            "dendrogram_to_json", "render_dendrogram")
        yield cli, "main", "cli", None
        yield workload, "parse_spec_file", "workload.parse", None
        yield workload, "validate_spec", "workload.validate", None
        yield workload, "execute", "workload.execute", self._on_execute
        yield generators, "materialize", "generators.materialize", self._on_materialize
        for kind in ("text", "graph", "matrix", "tensor"):
            yield generators, f"gen_{kind}", f"generators.{kind}", None
        yield workload, "payload_size", "dataio.size", self._on_size
        yield workload, "checksum_payload", "dataio.checksum", None
        yield cli, "checksum_payload", "dataio.checksum", None
        yield workload, "load_dataset", "dataio.load", self._on_load
        yield workload, "save_dataset", "dataio.save", self._on_save
        yield cli, "save_dataset", "dataio.save", self._on_save
        yield topdown, "load_sample", "topdown.load_sample", None
        yield topdown, "evaluate_tree", "topdown.evaluate_tree", None
        for attr in other_topdown:
            yield topdown, attr, "topdown.other", None
        yield similarity, "read_vectors_csv", "similarity.read_vectors", None
        yield similarity, "standardize", "similarity.standardize", self._on_standardize
        yield similarity, "pca", "similarity.pca", None
        yield similarity, "hcluster", "similarity.hcluster", None
        for attr in other_similarity:
            yield similarity, attr, "similarity.other", None

    # -- install / remove ---------------------------------------------------

    def install(self):
        for module, attr, name, on_return in self._targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, on_return))
        original_init = rng.SplitMix64.__init__
        self._saved.append((rng.SplitMix64, "__init__", original_init))
        rngs = self._rngs

        def init(inst, seed):
            original_init(inst, seed)
            rngs.append((inst, inst._state))

        rng.SplitMix64.__init__ = init

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def rng_draws(self) -> int:
        return sum(((inst._state - start) * _GAMMA_INVERSE) & _MASK64
                   for inst, start in self._rngs)

    def snapshot(self) -> dict[str, float]:
        """Raw totals since the last reset: self times under `self.<layer>`
        and inclusive times under `total.<layer>` (ns), and counters."""
        raw: dict[str, float] = {f"self.{k}": v for k, v in self.self_ns.items()}
        raw.update({f"total.{k}": v for k, v in self.total_ns.items()})
        raw.update(self.counts)
        raw["rng.draws"] = self.rng_draws()
        return raw
