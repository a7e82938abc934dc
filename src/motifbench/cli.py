"""Command-line entry point.

Subcommands: generate {text|graph|matrix|tensor|table}, run, analyze, cluster,
validate, list-motifs. Exit codes: 0 success, 1 runtime or I/O failure,
2 usage error, 3 workload-spec validation failure. Human summaries go to
stdout, machine reports to files, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from . import generators, workload
from .dataio import checksum_hex, checksum_payload, open_output, save_dataset, write_csv
from .datasets import ALL_KINDS, Payload
from .errors import EventError, InvariantError, MotifBenchError, SpecError
from .kernels import SAME_AS_INPUT, kernels_by_family
from .params import LINKAGES

# topdown and similarity, the analysis half, are imported by the commands and
# the run --counters paths that call them: every other command would compile
# them, and topdown's ast import, for nothing.

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def _flag_type(convert, accept, rule: str):
    """An argparse type that converts the text and keeps the value if
    `accept` holds for it. Every failure is an ArgumentTypeError stating
    `rule`: for any other exception argparse prints the type function's name."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return parse


_positive_int = _flag_type(int, lambda v: v >= 1, "an integer >= 1")
_positive_float = _flag_type(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_variance_fraction = _flag_type(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_label = _flag_type(str, bool, "a non-empty label")


def _say(args, message: str):
    if not args.quiet:
        print(message)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write_json(path: str, doc: dict):
    with open_output(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# generate


def _emit_dataset(payload: Payload, path: str, text_matrix: bool = False) -> None:
    save_dataset(payload, path, text_matrix=text_matrix)
    digest = checksum_hex(checksum_payload(payload))
    size = os.path.getsize(path)
    print(f"{digest} {size} {path}")


def _dist_flag(text: str) -> dict:
    """--dist 'uniform:lo,hi' or 'gaussian:mu,sigma' as generator params;
    omitted or empty values (`gaussian:,2`) take the generator defaults."""
    name, _, rest = text.partition(":")
    params = {"dist": name}
    keys = generators.DISTRIBUTIONS.get(name)
    if keys is not None:  # an unknown name is left for make_genspec to reject
        values = rest.split(",") if rest else []
        if len(values) > len(keys):
            raise InvariantError(f"--dist {name} takes at most {len(keys)} values, got {text!r}")
        params.update((key, value) for key, value in zip(keys, values) if value)
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

    if spec.kind != "table":
        payload = generators.materialize(spec).payload
        _emit_dataset(payload, args.output, text_matrix=getattr(args, "text", False))
        return EXIT_OK
    p = spec.param_dict()  # both tables come from one stream: generate the pair once
    tables = generators.gen_table(p["orders"], p["items"], spec.rng_seed)
    for name, table in zip(("order", "item"), tables):
        _emit_dataset(table, os.path.join(args.output, f"{name}.table"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


def _sample_json(sample) -> dict:
    return {
        "label": sample.label,
        "width": sample.width,
        "cycles": sample.cycles,
        "events": {name: sample.events[name] for name in sorted(sample.events)},
    }


def cmd_run(args) -> int:
    spec = workload.parse_spec_file(args.spec)
    base_dir = os.path.dirname(os.path.abspath(args.spec))

    mode, _, counter_arg = (args.counters or "").partition(":")
    samples = []
    window = contextlib.nullcontext
    if mode == "file":
        paths = [p for p in counter_arg.split(",") if p]
        if len(paths) != args.repeat:
            _fail(f"--counters file: needs {args.repeat} files (one per repeat), got {len(paths)}")
            return EXIT_USAGE
        from . import topdown
        samples = [topdown.load_sample(p) for p in paths]
    elif mode == "cmd":
        import shlex  # here, by its only user, as _collector imports subprocess
        try:  # before any input is made
            argv = shlex.split(counter_arg)
            if not argv:
                raise ValueError("it is empty")
        except ValueError as exc:  # No closing quotation, say
            _fail(f"--counters cmd: {counter_arg!r} is not a command: {exc}")
            return EXIT_USAGE
        window = functools.partial(_collector, argv, args.duration, samples)
    elif args.counters:
        _fail(f"--counters must start with file: or cmd:, got {args.counters!r}")
        return EXIT_USAGE

    reports = workload.execute(spec, repeat=args.repeat, base_dir=base_dir, window=window)
    counters_doc = None
    if samples:
        from . import topdown
        counters_doc = {
            "repeats": [_sample_json(s) for s in samples],
            "averaged": _sample_json(topdown.average_samples(samples)),
        }

    doc = workload.report_document(reports, counters=counters_doc)
    if args.report:
        if args.csv:
            fields = workload.InvocationRecord._fields
            write_csv(args.report, ["workload", "repeat", *fields],
                      ([doc["workload"], rep["repeat"], *(inv[f] for f in fields)]
                       for rep in doc["repeats"] for inv in rep["invocations"]))
        else:
            _write_json(args.report, doc)
    total_ms = sum(r.total_ns for r in reports) / 1e6
    _say(args, f"{spec.name}: {args.repeat} repeat(s), {total_ms:.2f} ms measured")
    for fam, frac in doc["family_fractions"].items():
        _say(args, f"  {fam:<10} {frac:.3f}")
    return EXIT_OK


@contextlib.contextmanager
def _collector(template: list[str], duration: float, samples: list):
    """Run the collector command, the `template` arguments with {pid} and
    {duration} substituted, across one repeat's invocations and append the
    sample parsed from its stdout. A kernel failure inside the window still
    reaps the collector and stays the error reported. subprocess is imported
    here, by its only user, to spare every other command its import."""
    import subprocess
    from . import topdown

    pid, seconds = str(os.getpid()), f"{duration:g}"
    argv = [arg.replace("{pid}", pid).replace("{duration}", seconds) for arg in template]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        yield
    finally:
        out, err = proc.communicate()
    if proc.returncode != 0:
        raise EventError(f"collector exited with {proc.returncode}: {err.strip()[:200]}")
    samples.append(topdown.parse_sample(out, path="<collector>"))


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    from . import topdown
    mapping = topdown.load_mapping(args.mapping) if args.mapping else None
    samples = [topdown.load_sample(path, width=args.width, mapping=mapping)
               for path in args.events]
    sample = topdown.average_samples(samples)
    if args.label is not None:
        sample = topdown.EventSample(sample.events, sample.width, sample.cycles, args.label)
    tree = topdown.builtin_tree() if args.tree == "builtin" else topdown.load_tree(args.tree)

    breakdown = topdown.evaluate_tree(sample, tree)
    scalars = topdown.scalar_metrics(sample)
    vector = topdown.to_metric_vector(breakdown, scalars, sample.label)

    _say(args, f"label: {sample.label}  (width {sample.width}, cycles {sample.cycles:g})")
    for node in breakdown.children:
        _say(args, f"  {node.name:<16} {node.fraction:.3f}")
    _say(args, f"  {'IPC':<16} {scalars['ipc']:.3f}")
    _say(args, f"  {'MLP':<16} {scalars['mlp']:.3f}")

    if args.output and args.csv:
        write_csv(args.output, ["metric", "value"], zip(vector.names, vector.values))
    elif args.output:
        doc = {"label": sample.label, "width": sample.width, "cycles": sample.cycles,
               "breakdown": breakdown, **scalars}
        with open_output(args.output) as fh:
            fh.write(topdown.analysis_json(doc))
    if args.vector_out:
        from . import similarity
        similarity.append_vector_csv(args.vector_out, vector)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cluster


def cmd_cluster(args) -> int:
    from . import similarity
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
            write_csv(args.output, similarity.MergeStep._fields, dendrogram.merges)
        else:
            _write_json(args.output, doc)
    _say(args, similarity.render_dendrogram(dendrogram, labels))
    if args.cut:
        assignments = doc["cut"]["assignments"]
        for label, cluster in zip(labels, assignments):
            _say(args, f"cluster {cluster}: {label}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate / list-motifs


def cmd_validate(args) -> int:
    spec = workload.parse_spec_file(args.spec)
    _say(args, f"{args.spec}: ok ({spec.name}: {len(spec.invocations)} invocations)")
    return EXIT_OK


def cmd_list_motifs(args) -> int:
    for family, specs in kernels_by_family().items():
        print(family.capitalize())
        for spec in specs:
            kinds = ", ".join("any" if ks == set(ALL_KINDS) else "|".join(sorted(ks))
                              for ks in spec.input_kinds)
            out = "same as input" if spec.output_kind == SAME_AS_INPUT else spec.output_kind
            print(f"  {spec.motif:<26} arity {spec.arity}  {kinds} -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: building it costs about 20
    times a parse, and every parse_args call returns a fresh Namespace.
    Callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="motifbench",
        description="Compose motif DAG workloads over generated datasets and "
        "analyze their pipeline behavior.",
    )
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it.
    globals_parent = argparse.ArgumentParser(add_help=False)
    for flag, text in (("--quiet", "suppress human summaries"),
                       ("--csv", "write flattened CSV instead of JSON where supported")):
        parser.add_argument(flag, action="store_true", help=text)
        globals_parent.add_argument(flag, action="store_true", default=argparse.SUPPRESS,
                                    help=text)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset file")
    gensub = gen.add_subparsers(dest="gen_kind", required=True)

    g_text = gensub.add_parser("text", parents=[globals_parent], help="bigram-model text corpus")
    g_text.add_argument("--bytes", required=True,
                        help="target size in bytes: the corpus is at most 5%% (at least 1 "
                        "byte) larger and short of it by less than the longest seed word")
    g_text.add_argument("--seed-corpus", help="seed corpus file (default: built-in corpus)")

    g_graph = gensub.add_parser("graph", parents=[globals_parent], help="random graph")
    g_graph.add_argument("--vertices", required=True)
    g_graph.add_argument("--edges", required=True)
    g_graph.add_argument("--model", default="uniform",
                         help="uniform | rmat | rmat:a,b,c,d (default uniform)")

    g_matrix = gensub.add_parser("matrix", parents=[globals_parent], help="random dense matrix")
    g_matrix.add_argument("--rows", required=True)
    g_matrix.add_argument("--cols", required=True)
    g_matrix.add_argument("--dist", default="uniform:0,1",
                          help="uniform:lo,hi | gaussian:mu,sigma")
    g_matrix.add_argument("--text", action="store_true", help="CSV body instead of binary")

    g_tensor = gensub.add_parser("tensor", parents=[globals_parent], help="random dense tensor")
    g_tensor.add_argument("--shape", required=True, help="like 4x16x16x3")
    g_tensor.add_argument("--dist", default="uniform:0,1")

    g_table = gensub.add_parser("table", parents=[globals_parent], help="ORDER/ITEM table pair")
    g_table.add_argument("--orders", required=True)
    g_table.add_argument("--items", required=True)

    for g in (g_text, g_graph, g_matrix, g_tensor, g_table):
        g.add_argument("--rng-seed", default=0)
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
    run.add_argument("--duration", type=_positive_float, default=1.0,
                     help="seconds substituted for {duration} in cmd collectors")
    run.set_defaults(func=cmd_run)

    analyze = sub.add_parser("analyze", parents=[globals_parent],
                              help="evaluate the bottleneck hierarchy")
    analyze.add_argument("--events", nargs="+", required=True,
                         help="event dump files; several are averaged")
    analyze.add_argument("--tree", default="builtin", help="builtin or a tree JSON file")
    analyze.add_argument("--mapping", help="abstract,platform event-name mapping CSV")
    analyze.add_argument("--width", type=_positive_int, help="issue width override")
    analyze.add_argument("--label", type=_label, help="label override for the metric vector")
    analyze.add_argument("-o", "--output", help="write breakdown JSON here")
    analyze.add_argument("--vector-out", help="append the metric vector to this CSV")
    analyze.set_defaults(func=cmd_analyze)

    cluster = sub.add_parser("cluster", parents=[globals_parent],
                              help="PCA + hierarchical clustering of metric vectors")
    cluster.add_argument("--metrics", required=True, help="metric vector CSV")
    cluster.add_argument("--variance", type=_variance_fraction, default=0.9,
                         help="explained-variance threshold for PCA (default 0.9)")
    cluster.add_argument("--linkage", choices=LINKAGES, default="average")
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
    except SpecError as exc:  # raised only by parsing the --spec of run and validate
        for problem in exc.diagnostics:
            _fail(str(problem))
        return EXIT_VALIDATION
    except (MotifBenchError, OSError) as exc:
        _fail(str(exc))
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
