"""Command-line entry point.

Subcommands: generate {text|graph|matrix|tensor|table}, run, analyze, cluster,
validate, list-motifs. Exit codes: 0 success, 1 runtime or I/O failure,
2 usage error, 3 workload-spec validation failure. Human summaries go to
stdout, machine reports to files, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shlex
import subprocess
import sys

from . import generators, similarity, topdown, workload
from .dataio import checksum_hex, checksum_payload, save_dataset
from .datasets import Dataset, Provenance
from .errors import (
    EventError,
    FormatError,
    InvariantError,
    KernelError,
    MotifBenchError,
    SpecError,
)
from .kernels import SAME_AS_INPUT, kernels_by_family

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _variance_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _say(args, message: str):
    if not args.quiet:
        print(message)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write_json(path: str, doc: dict):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# generate


def _emit_dataset(dataset: Dataset, path: str, text_matrix: bool = False) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_dataset(dataset, path, text_matrix=text_matrix)
    digest = checksum_hex(checksum_payload(dataset.payload))
    size = os.path.getsize(path)
    print(f"{digest} {size} {path}")


def _dist_flag(text: str) -> dict:
    """--dist 'uniform:lo,hi' or 'gaussian:mu,sigma' as generator params;
    omitted values take the generator defaults."""
    name, _, rest = text.partition(":")
    params = {"dist": name}
    keys = generators.DISTRIBUTIONS.get(name)
    if keys is not None:  # an unknown name is left for make_genspec to reject
        values = [v for v in rest.split(",") if v]
        if len(values) > len(keys):
            raise InvariantError(f"--dist {name} takes at most {len(keys)} values, got {text!r}")
        params.update(zip(keys, values))
    return params


def _generate_params(args) -> dict:
    """The raw generator params spelled by the flags of a generate command."""
    params = {"seed": args.rng_seed}
    for key in ("bytes", "vertices", "edges", "rows", "cols", "shape", "orders", "items"):
        if key in args:
            params[key] = getattr(args, key)
    if getattr(args, "seed_corpus", None):
        params["corpus"] = args.seed_corpus
    if "dist" in args:
        params.update(_dist_flag(args.dist))
    if "model" in args:
        model, sep, probs = args.model.partition(":")
        params["model"] = model
        if sep:
            probs = probs.split(",")
            if len(probs) != 4:
                raise InvariantError(f"rmat needs four probabilities, got {args.model!r}")
            params.update(zip("abcd", probs))
    return params


def cmd_generate(args) -> int:
    try:
        spec = generators.make_genspec(args.gen_kind, _generate_params(args))
    except InvariantError as exc:
        _fail(str(exc))
        return EXIT_USAGE

    if spec.kind == "table":
        # Both tables come from one draw, so generate the pair once.
        p = spec.param_dict()
        prov = Provenance("gen_table", spec.rng_seed, spec.params)
        os.makedirs(args.output, exist_ok=True)
        tables = generators.gen_table(p["orders"], p["items"], spec.rng_seed)
        for name, table in zip(("order", "item"), tables):
            _emit_dataset(Dataset(table, prov), os.path.join(args.output, f"{name}.table"))
        return EXIT_OK

    dataset = generators.materialize(spec)
    _emit_dataset(dataset, args.output, text_matrix=getattr(args, "text", False))
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


def _sample_json(sample: topdown.EventSample) -> dict:
    return {
        "label": sample.label,
        "width": sample.width,
        "cycles": sample.cycles,
        "events": {name: sample.events[name] for name in sorted(sample.events)},
    }


def cmd_run(args) -> int:
    try:
        spec = workload.parse_spec_file(args.spec)
    except OSError as exc:
        _fail(str(exc))
        return EXIT_RUNTIME
    except SpecError as exc:
        for diag in exc.diagnostics:
            print(f"{args.spec}: {diag}", file=sys.stderr)
        return EXIT_VALIDATION
    base_dir = os.path.dirname(os.path.abspath(args.spec))

    counters_doc = None
    mode, _, counter_arg = (args.counters or "").partition(":")
    if args.counters and mode not in ("file", "cmd"):
        _fail(f"--counters must start with file: or cmd:, got {args.counters!r}")
        return EXIT_USAGE

    if args.counters and mode == "file":
        paths = [p for p in counter_arg.split(",") if p]
        if len(paths) != args.repeat:
            _fail(f"--counters file: needs {args.repeat} files (one per repeat), got {len(paths)}")
            return EXIT_USAGE
        reports = workload.execute(spec, repeat=args.repeat, base_dir=base_dir)
        samples = [topdown.load_sample(p) for p in paths]
        counters_doc = {
            "repeats": [_sample_json(s) for s in samples],
            "averaged": _sample_json(topdown.average_samples(samples)),
        }
    elif args.counters and mode == "cmd":
        reports = []
        samples = []
        for r in range(args.repeat):
            proc = subprocess.Popen(
                _collector_argv(counter_arg, args.duration),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            part = workload.execute(
                spec, repeat=1, base_dir=base_dir, write_outputs=(r == args.repeat - 1)
            )
            out, err = proc.communicate()
            if proc.returncode != 0:
                raise EventError(f"collector exited with {proc.returncode}: {err.strip()[:200]}")
            samples.append(topdown.parse_sample(out, path="<collector>"))
            reports.append(dataclasses.replace(part[0], repeat_index=r))
        counters_doc = {
            "repeats": [_sample_json(s) for s in samples],
            "averaged": _sample_json(topdown.average_samples(samples)),
        }
    else:
        reports = workload.execute(spec, repeat=args.repeat, base_dir=base_dir)

    doc = workload.report_document(reports, counters=counters_doc)
    if args.report:
        if args.csv:
            _write_run_csv(args.report, doc)
        else:
            _write_json(args.report, doc)
    total_ms = sum(r.total_ns for r in reports) / 1e6
    _say(args, f"{spec.name}: {args.repeat} repeat(s), {total_ms:.2f} ms measured")
    for fam, frac in doc["family_fractions"].items():
        _say(args, f"  {fam:<10} {frac:.3f}")
    return EXIT_OK


def _collector_argv(template: str, duration: float) -> list[str]:
    command = template.replace("{pid}", str(os.getpid()))
    command = command.replace("{duration}", f"{duration:g}")
    argv = shlex.split(command)
    if not argv:
        raise EventError("empty collector command")
    return argv


def _write_run_csv(path: str, doc: dict):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["workload", "repeat", "id", "motif", "wall_ns", "in_bytes", "out_bytes"])
        for rep in doc["repeats"]:
            for inv in rep["invocations"]:
                writer.writerow(
                    [
                        doc["workload"],
                        rep["repeat"],
                        inv["id"],
                        inv["motif"],
                        inv["wall_ns"],
                        inv["in_bytes"],
                        inv["out_bytes"],
                    ]
                )


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    mapping = topdown.load_mapping(args.mapping) if args.mapping else None
    samples = [topdown.load_sample(path, width=args.width, mapping=mapping)
               for path in args.events]
    sample = topdown.average_samples(samples)
    if args.label:
        sample.label = args.label
    tree = topdown.builtin_tree() if args.tree == "builtin" else topdown.load_tree(args.tree)

    breakdown = topdown.evaluate_tree(sample, tree)
    ipc_value = topdown.ipc(sample)
    mlp_value = topdown.mlp(sample)
    extras = []
    if "ms_uops" in sample.events and "uops_retired" in sample.events:
        extras.append(("ms_uops_ratio", topdown.ms_uops_ratio(sample)))
    vector = topdown.to_metric_vector(
        breakdown, ipc_value, mlp_value, sample.label, tuple(extras)
    )

    _say(args, f"label: {sample.label}  (width {sample.width}, cycles {sample.cycles:g})")
    for node in breakdown.children:
        _say(args, f"  {node.name:<16} {node.fraction:.3f}")
    _say(args, f"  {'IPC':<16} {ipc_value:.3f}")
    _say(args, f"  {'MLP':<16} {mlp_value:.3f}")

    if args.output:
        doc = {
            "label": sample.label,
            "width": sample.width,
            "cycles": sample.cycles,
            "breakdown": topdown.breakdown_to_json(breakdown),
            "ipc": ipc_value,
            "mlp": mlp_value,
        }
        for name, value in extras:
            doc[name] = value
        if args.csv:
            _write_vector_csv_file(args.output, vector)
        else:
            _write_json(args.output, doc)
    if args.vector_out:
        similarity.append_vector_csv(args.vector_out, vector)
    return EXIT_OK


def _write_vector_csv_file(path: str, vector: topdown.MetricVector):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "value"])
        for name, value in zip(vector.names, vector.values):
            writer.writerow([name, repr(value)])


# ---------------------------------------------------------------------------
# cluster


def cmd_cluster(args) -> int:
    vectors = similarity.read_vectors_csv(args.metrics)
    if len(vectors) < 2:
        _fail(f"need at least 2 metric rows, got {len(vectors)}")
        return EXIT_RUNTIME
    if args.no_standardize:
        labels = [v.label for v in vectors]
        matrix = [list(v.values) for v in vectors]
    else:
        labels, matrix = similarity.standardize(vectors)
    result = similarity.pca(matrix, args.variance)
    dendrogram = similarity.hcluster([list(p) for p in result.projected], linkage=args.linkage)

    doc = {
        "labels": labels,
        "standardized": not args.no_standardize,
        "variance_threshold": args.variance,
        "linkage": args.linkage,
        "explained": list(result.explained),
        "retained_components": result.retained,
        "dendrogram": similarity.dendrogram_to_json(dendrogram, labels),
    }
    if args.cut:
        doc["cut"] = {
            "clusters": args.cut,
            "assignments": similarity.cut_dendrogram(dendrogram, args.cut),
        }
    if args.output:
        if args.csv:
            _write_merges_csv(args.output, dendrogram, labels)
        else:
            _write_json(args.output, doc)
    _say(args, similarity.render_dendrogram(dendrogram, labels))
    if args.cut:
        assignments = doc["cut"]["assignments"]
        for label, cluster in zip(labels, assignments):
            _say(args, f"cluster {cluster}: {label}")
    return EXIT_OK


def _write_merges_csv(path: str, dendrogram, labels):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["a", "b", "distance", "new_id", "size"])
        for step in dendrogram.merges:
            writer.writerow([step.a, step.b, repr(step.distance), step.new_id, step.size])


# ---------------------------------------------------------------------------
# validate / list-motifs


def cmd_validate(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail(str(exc))
        return EXIT_RUNTIME
    try:
        spec = workload.parse_spec(text)
    except SpecError as exc:
        for diag in exc.diagnostics:
            print(f"{args.spec}: {diag}", file=sys.stderr)
        return EXIT_VALIDATION
    _say(args, f"{args.spec}: ok ({spec.name}: {len(spec.invocations)} invocations)")
    return EXIT_OK


def cmd_list_motifs(args) -> int:
    for family, specs in kernels_by_family().items():
        print(family.capitalize())
        for spec in specs:
            kinds = ", ".join("|".join(sorted(ks)) if len(ks) < 6 else "any"
                              for ks in spec.input_kinds)
            out = "same as input" if spec.output_kind == SAME_AS_INPUT else spec.output_kind
            print(f"  {spec.motif:<26} arity {spec.arity}  {kinds} -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifbench",
        description="Compose motif DAG workloads over generated datasets and "
        "analyze their pipeline behavior.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress human summaries")
    parser.add_argument("--csv", action="store_true",
                        help="write flattened CSV instead of JSON where supported")
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it.
    globals_parent = argparse.ArgumentParser(add_help=False)
    globals_parent.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    globals_parent.add_argument("--csv", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset file")
    gensub = gen.add_subparsers(dest="gen_kind", required=True)

    g_text = gensub.add_parser("text", parents=[globals_parent], help="bigram-model text corpus")
    g_text.add_argument("--bytes", type=int, required=True, help="target size in bytes (+/-5%%)")
    g_text.add_argument("--seed-corpus", help="seed corpus file (default: built-in corpus)")

    g_graph = gensub.add_parser("graph", parents=[globals_parent], help="random graph")
    g_graph.add_argument("--vertices", type=int, required=True)
    g_graph.add_argument("--edges", type=int, required=True)
    g_graph.add_argument("--model", default="uniform",
                         help="uniform | rmat | rmat:a,b,c,d (default uniform)")

    g_matrix = gensub.add_parser("matrix", parents=[globals_parent], help="random dense matrix")
    g_matrix.add_argument("--rows", type=int, required=True)
    g_matrix.add_argument("--cols", type=int, required=True)
    g_matrix.add_argument("--dist", default="uniform:0,1",
                          help="uniform:lo,hi | gaussian:mu,sigma")
    g_matrix.add_argument("--text", action="store_true", help="CSV body instead of binary")

    g_tensor = gensub.add_parser("tensor", parents=[globals_parent], help="random dense tensor")
    g_tensor.add_argument("--shape", required=True, help="like 4x16x16x3")
    g_tensor.add_argument("--dist", default="uniform:0,1")

    g_table = gensub.add_parser("table", parents=[globals_parent], help="ORDER/ITEM table pair")
    g_table.add_argument("--orders", type=int, required=True)
    g_table.add_argument("--items", type=int, required=True)

    for g in (g_text, g_graph, g_matrix, g_tensor, g_table):
        g.add_argument("--rng-seed", type=int, default=0)
        g.add_argument("-o", "--output", required=True,
                       help="output file (directory for table)")
        g.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", parents=[globals_parent], help="execute a workload spec")
    run.add_argument("--spec", required=True)
    run.add_argument("--repeat", type=_positive_int, default=1)
    run.add_argument("--report", help="write the run report JSON here")
    run.add_argument("--counters",
                     help="file:a.csv,b.csv,... (one per repeat) or cmd:TEMPLATE "
                     "with {pid}/{duration} placeholders")
    run.add_argument("--duration", type=float, default=1.0,
                     help="seconds substituted for {duration} in cmd collectors")
    run.set_defaults(func=cmd_run)

    analyze = sub.add_parser("analyze", parents=[globals_parent],
                              help="evaluate the bottleneck hierarchy")
    analyze.add_argument("--events", nargs="+", required=True,
                         help="event dump files; several are averaged")
    analyze.add_argument("--tree", default="builtin", help="builtin or a tree JSON file")
    analyze.add_argument("--mapping", help="abstract,platform event-name mapping CSV")
    analyze.add_argument("--width", type=_positive_int, help="issue width override")
    analyze.add_argument("--label", help="label override for the metric vector")
    analyze.add_argument("-o", "--output", help="write breakdown JSON here")
    analyze.add_argument("--vector-out", help="append the metric vector to this CSV")
    analyze.set_defaults(func=cmd_analyze)

    cluster = sub.add_parser("cluster", parents=[globals_parent],
                              help="PCA + hierarchical clustering of metric vectors")
    cluster.add_argument("--metrics", required=True, help="metric vector CSV")
    cluster.add_argument("--variance", type=_variance_fraction, default=0.9,
                         help="explained-variance threshold for PCA (default 0.9)")
    cluster.add_argument("--linkage", choices=similarity.LINKAGES, default="average")
    cluster.add_argument("--no-standardize", action="store_true",
                         help="cluster raw metric values")
    cluster.add_argument("--cut", type=_positive_int,
                         help="also report assignments at this cluster count")
    cluster.add_argument("-o", "--output", help="write dendrogram JSON here")
    cluster.set_defaults(func=cmd_cluster)

    validate = sub.add_parser("validate", parents=[globals_parent], help="check a workload spec")
    validate.add_argument("--spec", required=True)
    validate.set_defaults(func=cmd_validate)

    motifs = sub.add_parser("list-motifs", parents=[globals_parent],
                            help="print the kernel registry")
    motifs.set_defaults(func=cmd_list_motifs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except SpecError as exc:
        for diag in exc.diagnostics:
            print(f"error: {diag}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FormatError, EventError, InvariantError, KernelError, MotifBenchError, OSError) as exc:
        _fail(str(exc))
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
