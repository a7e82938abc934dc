import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import motifbench
from motifbench import generators, similarity, topdown, workload
from motifbench.cli import build_parser, main
from motifbench.dataio import csv_records, read_input
from motifbench.kernels import KernelSpec
from motifbench.kernels.sets import column_index
from motifbench.similarity import read_vectors_csv

from .shipped import SHIPPED_SPECS, shipped_spec_path
from .test_dataio import fail_on_write
from .topdown_samples import golden_sample, ideal_sample, write_sample


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# generate


def test_generate_matrix_deterministic_checksums(tmp_path, capsys):
    args = [
        "generate", "matrix", "--rows", "4", "--cols", "4",
        "--dist", "uniform:0,1", "--rng-seed", "7",
    ]
    assert run_cli(*args, "-o", str(tmp_path / "m1.bin")) == 0
    first = capsys.readouterr().out.split()[0]
    assert run_cli(*args, "-o", str(tmp_path / "m2.bin")) == 0
    second = capsys.readouterr().out.split()[0]
    assert first == second


def test_generate_graph_rmat_rejects_non_power_of_two(tmp_path, capsys):
    code = run_cli(
        "generate", "graph", "--vertices", "100", "--edges", "10",
        "--model", "rmat:0.57,0.19,0.19,0.05", "-o", str(tmp_path / "g"),
    )
    assert code == 2
    assert "power-of-two" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_generate_seed_outside_64_bits_exit_2(tmp_path, capsys, seed):
    code = run_cli("generate", "matrix", "--rows", "2", "--cols", "2",
                   "--rng-seed", seed, "-o", str(tmp_path / "m"))
    assert code == 2
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("model", ["uniform", "rmat"])
@pytest.mark.parametrize("vertices", [2**64, 2**65])
def test_generate_graph_vertices_past_64_bits_exit_2(tmp_path, capsys, model, vertices):
    # Rejected by the schema, before any draw.
    code = run_cli("generate", "graph", "--vertices", str(vertices), "--edges", "1",
                   "--model", model, "-o", str(tmp_path / "g"))
    assert code == 2
    assert "parameter 'vertices'" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("argv, code, message", [
    (("graph", "--vertices", "8", "--edges", "4", "--model", "rmat:0.5,0.5"), 2,
     "rmat needs four probabilities, got 'rmat:0.5,0.5'"),
    (("text", "--bytes", "100", "--seed-corpus", "{table}"), 1,
     "seed corpus '{table}' is not a text corpus"),
], ids=["rmat-two-probabilities", "seed-corpus-table"])
def test_generate_refusal_exit_code_and_text(tmp_path, capsys, argv, code, message):
    table = tmp_path / "order.table"
    table.write_text("#table v1\norder_id:integer\n1\n")
    out = tmp_path / "out"
    assert run_cli("generate", *(a.format(table=table) for a in argv), "-o", str(out)) == code
    assert capsys.readouterr().err == f"error: {message.format(table=table)}\n"
    assert not out.exists()


def test_generate_graph_largest_vertex_count_accepted(tmp_path):
    assert run_cli("generate", "graph", "--vertices", str(2**64 - 1), "--edges", "3",
                   "-o", str(tmp_path / "g")) == 0


def test_generate_largest_seed_accepted(tmp_path):
    assert run_cli("generate", "matrix", "--rows", "2", "--cols", "2",
                   "--rng-seed", str(2**64 - 1), "-o", str(tmp_path / "m")) == 0


# Count flags reach the generator's schema as text, so its rule and message
# apply, as for the same value in a spec.
@pytest.mark.parametrize("argv, key", [
    (("matrix", "--cols", "2", "--rows", "1e3"), "rows"),
    (("matrix", "--rows", "2", "--cols", "2", "--rng-seed", "1.0"), "seed"),
    (("text", "--bytes", "1e3"), "bytes"),
    (("graph", "--vertices", "8", "--edges", "4.5"), "edges"),
    (("table", "--orders", "4", "--items", "x"), "items"),
])
def test_generate_count_flag_not_an_integer_exit_2(tmp_path, capsys, argv, key):
    assert run_cli("generate", *argv, "-o", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"parameter {key!r} must be an integer, got {argv[-1]!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dist", ["uniform:1,2,3", "gaussian:0,1,2", "uniform:a,1", "poisson:3",
                                  "gaussian:0,0", "uniform:1,0"])
def test_generate_bad_dist_is_usage_error(tmp_path, capsys, dist):
    code = run_cli("generate", "matrix", "--rows", "2", "--cols", "2",
                   "--dist", dist, "-o", str(tmp_path / "m"))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("short, full", [("gaussian:,2", "gaussian:0,2"),
                                         ("uniform:,5", "uniform:0,5")])
def test_generate_dist_empty_field_keeps_its_position(tmp_path, capsys, short, full):
    checksums = []
    for i, dist in enumerate((short, full)):
        assert run_cli("generate", "matrix", "--rows", "3", "--cols", "3", "--rng-seed", "4",
                       "--dist", dist, "-o", str(tmp_path / f"m{i}")) == 0
        checksums.append(capsys.readouterr().out.split()[0])
    assert checksums[0] == checksums[1]


def test_generate_table_writes_pair_with_integrity(tmp_path, capsys):
    out = tmp_path / "tables"
    assert run_cli(
        "generate", "table", "--orders", "100", "--items", "300",
        "--rng-seed", "1", "-o", str(out),
    ) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    from motifbench.dataio import load_dataset

    order = load_dataset(str(out / "order.table")).payload
    item = load_dataset(str(out / "item.table")).payload
    order_ids = {r[0] for r in order.rows}
    oid = column_index(item, "order_id")
    assert all(r[oid] in order_ids for r in item.rows)
    assert (order, item) == tuple(generators.gen_table(100, 300, 1))


def test_generate_text_size(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    assert run_cli("generate", "text", "--bytes", "10000", "--rng-seed", "3",
                   "-o", str(path)) == 0
    size = os.path.getsize(path)
    assert 9500 <= size <= 10500


def test_generate_matrix_text_mode(tmp_path):
    path = tmp_path / "m.csv"
    assert run_cli("generate", "matrix", "--rows", "2", "--cols", "2",
                   "--text", "-o", str(path)) == 0
    first = path.read_text().splitlines()[0]
    assert first.startswith("#matrix v1 2 2 text")


def test_generate_usage_error_missing_flag():
    assert run_cli("generate", "matrix", "--rows", "2") == 2


# ---------------------------------------------------------------------------
# run / validate


def test_run_shipped_spec_repeat3(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.json"
    code = run_cli(
        "run", "--spec", shipped_spec_path("sift-like"),
        "--repeat", "3", "--report", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert len(doc["repeats"]) == 3
    checks = [rep["output_checksums"] for rep in doc["repeats"]]
    assert checks[0] == checks[1] == checks[2]
    assert abs(sum(doc["family_fractions"].values()) - 1.0) < 1e-9


def test_run_spec_with_cycle_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text('workload "w"\nnode y = transform.fft(y)\n')
    code = run_cli("run", "--spec", str(bad))
    assert code == 3
    assert "cycle detected" in capsys.readouterr().err


def test_run_counters_files_averaged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    paths = []
    for i, retiring in enumerate((0.2, 0.3, 0.4)):
        sample = golden_sample(retiring, label=f"r{i}")
        p = tmp_path / f"c{i}.csv"
        write_sample(sample, str(p))
        paths.append(str(p))
    report = tmp_path / "rep.json"
    code = run_cli(
        "run", "--spec", shipped_spec_path("index"), "--repeat", "3",
        "--counters", "file:" + ",".join(paths), "--report", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    averaged = doc["counters"]["averaged"]["events"]
    slots = 4 * 1000
    want = (0.2 * slots + 0.3 * slots + 0.4 * slots) / 3
    assert averaged["uops_retired"] == pytest.approx(want)
    assert len(doc["counters"]["repeats"]) == 3


def test_run_counters_file_count_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sample = golden_sample(0.5)
    p = tmp_path / "c.csv"
    write_sample(sample, str(p))
    code = run_cli(
        "run", "--spec", shipped_spec_path("index"), "--repeat", "2",
        "--counters", f"file:{p}",
    )
    assert code == 2


def test_run_counters_cmd_substitutes_placeholders(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    collector = tmp_path / "collector.py"
    collector.write_text(
        "import sys\n"
        "pid, duration = sys.argv[1], sys.argv[2]\n"
        "print('cycles,100')\n"
        "print(f'pid_echo,{int(pid)}')\n"
        "print(f'duration_echo,{float(duration)}')\n"
    )
    report = tmp_path / "rep.json"
    code = run_cli(
        "run", "--spec", shipped_spec_path("index"),
        "--counters", f"cmd:{sys.executable} {collector} {{pid}} {{duration}}",
        "--duration", "2.5", "--report", str(report),
    )
    assert code == 0
    events = json.loads(report.read_text())["counters"]["repeats"][0]["events"]
    assert events["pid_echo"] == os.getpid()
    assert events["duration_echo"] == 2.5


def test_run_counters_cmd_collector_failure_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli(
        "run", "--spec", shipped_spec_path("index"),
        "--counters", f'cmd:{sys.executable} -c "import sys; sys.exit(3)"',
    )
    assert code == 1
    assert "collector exited" in capsys.readouterr().err


# Refused before any input is made: no input is generated, no collector
# starts and no report is written.
@pytest.mark.parametrize("counters, message", [
    ("bogus", "--counters must start with file: or cmd:, got 'bogus'"),
    ('cmd:perf "x', """--counters cmd: 'perf "x' is not a command: No closing quotation"""),
    ("cmd:", "--counters cmd: '' is not a command: it is empty"),
    ("cmd:  ", "--counters cmd: '  ' is not a command: it is empty"),
], ids=["bogus", "unclosed-quote", "empty", "blank"])
def test_run_counters_refused_before_any_input_exit_2(tmp_path, capsys, monkeypatch, counters,
                                                      message):
    def called(*args, **kwargs):
        pytest.fail("called after --counters was refused")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(subprocess, "Popen", called)
    monkeypatch.setattr(generators, "materialize", called)
    report = tmp_path / "rep.json"
    code = run_cli("run", "--spec", shipped_spec_path("index"),
                   "--counters", counters, "--report", str(report))
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


def test_run_counters_cmd_collector(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    collector = tmp_path / "collector.py"
    collector.write_text(
        "print('#meta width=4')\n"
        "print('cycles,1000')\n"
        "print('uops_retired,800')\n"
    )
    report = tmp_path / "rep.json"
    code = run_cli(
        "run", "--spec", shipped_spec_path("index"), "--repeat", "2",
        "--counters", f"cmd:{sys.executable} {collector} {{pid}} {{duration}}",
        "--duration", "0.1", "--report", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert len(doc["repeats"]) == 2
    assert doc["counters"]["averaged"]["events"]["uops_retired"] == 800


def test_run_counters_cmd_materializes_inputs_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    real = generators.materialize

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(generators, "materialize", counting)
    collector = tmp_path / "collector.py"
    collector.write_text("print('cycles,1000')\n")
    report = tmp_path / "rep.json"
    code = run_cli(
        "run", "--spec", shipped_spec_path("index"), "--repeat", "3",
        "--counters", f"cmd:{sys.executable} {collector}", "--report", str(report),
    )
    assert code == 0
    assert len(calls) == 1
    doc = json.loads(report.read_text())
    assert [rep["repeat"] for rep in doc["repeats"]] == [0, 1, 2]
    assert len(doc["counters"]["repeats"]) == 3


def test_run_validates_spec_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    real = workload.validate_spec

    def counting(spec, *args):
        calls.append(spec.name)
        return real(spec, *args)

    monkeypatch.setattr(workload, "validate_spec", counting)
    code = run_cli("--quiet", "run", "--spec", shipped_spec_path("index"),
                   "--repeat", "3")
    assert code == 0
    assert calls == ["index"]


def test_run_coerces_each_invocations_params_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    real = KernelSpec.coerce_params

    def counting(self, raw):
        calls.append(self.motif)
        return real(self, raw)

    monkeypatch.setattr(KernelSpec, "coerce_params", counting)
    code = run_cli("--quiet", "run", "--spec", shipped_spec_path("sift-like"),
                   "--repeat", "2")
    assert code == 0
    assert len(calls) == 6  # one per invocation: validation's dict is the one run


def test_run_counters_cmd_kernel_failure_waits_for_collector(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = tmp_path / "bad.spec"
    spec.write_text(
        'workload "w"\n'
        "input a = generate.matrix(rows=2, cols=3, seed=1)\n"
        "input b = generate.matrix(rows=2, cols=3, seed=2)\n"
        "node p = matrix.multiply(a, b)\n"
    )
    marker = tmp_path / "collector.done"
    collector = tmp_path / "collector.py"
    collector.write_text(
        "import sys, time\n"
        "time.sleep(0.2)\n"
        f"open({str(marker)!r}, 'w').close()\n"
        "sys.exit(3)\n"
    )
    code = run_cli("run", "--spec", str(spec), "--counters", f"cmd:{sys.executable} {collector}")
    assert code == 1
    assert marker.exists()
    err = capsys.readouterr().err
    assert "'p'" in err and "matrix.multiply" in err
    assert "collector exited" not in err


def test_validate_shipped_specs_exit_0(capsys):
    for name in SHIPPED_SPECS:
        assert run_cli("validate", "--spec", shipped_spec_path(name)) == 0


@pytest.mark.parametrize("command", ["validate", "run"])
def test_every_spec_problem_is_one_located_error_line(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "two.spec"
    bad.write_text(
        'workload "w"\n'
        "input m = generate.matrix(rows=2, cols=2, seed=1)\n"
        "node y = transform.fft(x)\n"
        'output m @ "out.matrix"\n'
        'output m @ "./out.matrix"\n'
    )
    assert run_cli(command, "--spec", str(bad)) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:3: undefined dataset id 'x'",
        f"error: {bad}:5: output path './out.matrix' is already written on line 4",
    ]
    assert sorted(os.listdir(tmp_path)) == ["two.spec"]


def test_validate_prints_each_problem_once_in_line_order(tmp_path, capsys):
    bad = tmp_path / "order.spec"
    bad.write_text(
        'workload "w"\n'
        "node a = transform.fft(x)\n"
        "input a = generate.matrix(rows=2, cols=2, seed=1)\n"
        'input f : foo @ "f.foo"\n'
        "node z = warp.zoom(a)\n"
        "node s = sort.sort(f)\n"
        "node y = transform.fft(z)\n"
        'output z @ "z.matrix"\n'
    )
    assert run_cli("validate", "--spec", str(bad)) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:2: undefined dataset id 'x'",
        f"error: {bad}:3: duplicate dataset id 'a'",
        f"error: {bad}:4: unknown payload kind 'foo'",
        f"error: {bad}:5: unknown motif 'warp.zoom'",
    ]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_run_filter_literal_its_column_refuses_exits_1(tmp_path, capsys, monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    spec = tmp_path / "filter.spec"
    spec.write_text(
        'workload "w"\n'
        "input it = generate.table(orders=4, items=8, which=item, seed=1)\n"
        f"node f = set.filter(it, column=goods_price, cmp=ne, value={value})\n"
        'output f @ "f.table"\n'
    )
    assert run_cli("run", "--spec", str(spec)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"literal {value!r} is not a valid real" in err
    assert sorted(os.listdir(tmp_path)) == ["filter.spec"]


def test_validate_arity_error_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "arity.spec"
    bad.write_text(
        'workload "w"\n'
        "input a = generate.matrix(rows=2, cols=2, seed=1)\n"
        "node p = matrix.multiply(a)\n"
    )
    code = run_cli("validate", "--spec", str(bad))
    assert code == 3
    err = capsys.readouterr().err
    assert "takes 2 operand(s)" in err


@pytest.mark.parametrize("line", [
    "input t = generate.text(bytes=64, seed=1)\nnode s = sampling.random_sample(t, fraction=nan)",
    "input g = generate.graph(vertices=8, edges=4, seed=1)\nnode r = graph.pagerank(g, damping=nan)",
    "input g = generate.graph(vertices=8, edges=4, seed=1)\nnode r = graph.pagerank(g, tol=inf)",
])
def test_validate_non_finite_float_exit_3(tmp_path, capsys, line):
    bad = tmp_path / "nan.spec"
    bad.write_text(f'workload "w"\n{line}\n')
    assert run_cli("validate", "--spec", str(bad)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:3: ") and "must be finite" in err


_TEXT = "input t = generate.text(bytes=64, seed=1)\n"
_GRAPH = "input g = generate.graph(vertices=8, edges=4, seed=1)\n"
_MATRIX = "input m = generate.matrix(rows=4, cols=4, seed=1)\n"
_TENSOR = "input x = generate.tensor(shape=1x4x4x1, seed=1)\n"
_TABLE = "input tb = generate.table(orders=4, items=8, seed=1)\n"


# One value for each check that kernels and generators leave to their schema:
# the spec is rejected before any input is generated or kernel runs.
@pytest.mark.parametrize("lines, needle", [
    (_GRAPH + "node r = graph.pagerank(g, damping=1.0)", "'damping'"),
    (_GRAPH + "node r = graph.pagerank(g, max_iters=0)", "'max_iters'"),
    (_TEXT + "node s = sampling.random_sample(t, fraction=1.5)", "'fraction'"),
    (_TENSOR + "node p = sampling.max_pool(x, window=0)", "'window'"),
    (_TENSOR + "node p = sampling.avg_pool(x, window=2, stride=0)", "'stride'"),
    (_MATRIX + "node d = sampling.downsample(m, factor=0)", "'factor'"),
    (_TENSOR + "node d = sampling.dropout(x, p=1.5)", "'p'"),
    (_TENSOR + "node n = statistic.batch_norm(x, epsilon=0)", "'epsilon'"),
    (_TABLE + "node a = statistic.aggregate(tb, group=buyer_id, agg=median)", "'agg'"),
    (_TABLE + "node a = statistic.aggregate(tb, group=buyer_id, agg=sum)", "target="),
    (_TENSOR + "node c = transform.convolution(x, x, stride=0)", "'stride'"),
    (_TABLE + "node f = set.filter(tb, column=buyer_id, cmp=like, value=1)", "'cmp'"),
    (_TEXT + 'node g = set.grep(t, pattern="")', "'pattern' must be non-empty"),
    (_TABLE + 'node p = set.project(tb, columns=",")', "'columns' must name at least one"),
    ("input t = generate.text(bytes=0)", "'bytes'"),
    ("input g = generate.graph(vertices=0, edges=4)", "'vertices'"),
    (f"input g = generate.graph(vertices={2**64}, edges=4)", "'vertices'"),
    ("input g = generate.graph(vertices=8, edges=0)", "'edges'"),
    ("input g = generate.graph(vertices=100, edges=4, model=rmat)", "power-of-two"),
    ("input g = generate.graph(vertices=8, edges=4, model=rmat, a=1.5)", "'a'"),
    ("input m = generate.matrix(rows=0, cols=4)", "'rows'"),
    ("input m = generate.matrix(rows=4, cols=0)", "'cols'"),
    ("input m = generate.matrix(rows=4, cols=4, dist=gaussian, sigma=0)", "'sigma'"),
    ("input x = generate.tensor(shape=2x0)", "must be positive"),
    ("input tb = generate.table(orders=0, items=8)", "'orders'"),
    ("input tb = generate.table(orders=4, items=0)", "'items'"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_value_the_schema_rejects_exits_3(tmp_path, capsys, command, lines, needle):
    bad = tmp_path / "bad.spec"
    bad.write_text(f'workload "w"\n{lines}\n')
    assert run_cli(command, "--spec", str(bad)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{lines.count(chr(10)) + 2}: ") and needle in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_ideal_pipeline_prints_retiring_one(tmp_path, capsys):
    dump = tmp_path / "ideal.csv"
    write_sample(ideal_sample(), str(dump))
    out = tmp_path / "breakdown.json"
    code = run_cli("analyze", "--events", str(dump), "-o", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Retiring" in stdout and "1.000" in stdout
    doc = json.loads(out.read_text())
    assert doc["breakdown"]["children"][0]["fraction"] == 1.0


def test_analyze_golden_retiring_printed(tmp_path, capsys):
    dump = tmp_path / "golden.csv"
    write_sample(golden_sample(0.229), str(dump))
    assert run_cli("analyze", "--events", str(dump)) == 0
    assert "0.229" in capsys.readouterr().out


def test_analyze_three_dumps_average_linearity(tmp_path, capsys):
    paths = []
    for i, retiring in enumerate((0.2, 0.3, 0.4)):
        p = tmp_path / f"d{i}.csv"
        write_sample(golden_sample(retiring, label=f"d{i}"), str(p))
        paths.append(str(p))
    out = tmp_path / "avg.json"
    assert run_cli("analyze", "--events", *paths, "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    retiring = doc["breakdown"]["children"][0]
    assert retiring["name"] == "Retiring"
    assert retiring["fraction"] == pytest.approx(0.3, abs=1e-12)


def _without(sample, event):
    events = {k: v for k, v in sample.events.items() if k != event}
    return topdown.EventSample(events, sample.width, sample.cycles, sample.label)


@pytest.mark.parametrize("samples, message", [
    ([_without(golden_sample(0.3), "instructions_retired")],
     "missing events: instructions_retired"),
    ([golden_sample(0.3, width=4), golden_sample(0.3, width=8)],
     "samples disagree on issue width"),
], ids=["no-instructions-retired", "widths-differ"])
def test_analyze_refusal_is_one_error_line_exit_1(tmp_path, capsys, samples, message):
    paths = [str(tmp_path / f"d{i}.csv") for i in range(len(samples))]
    for sample, path in zip(samples, paths):
        write_sample(sample, path)
    assert run_cli("analyze", "--events", *paths) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_analyze_missing_events_exit_1(tmp_path, capsys):
    dump = tmp_path / "thin.csv"
    dump.write_text("cycles,100\nuops_retired,10\n")
    code = run_cli("analyze", "--events", str(dump))
    assert code == 1
    err = capsys.readouterr().err
    assert "missing events" in err and "uops_issued" in err


@pytest.mark.parametrize("content, message", [
    ("uops_retired,5\n", "cycles must be present and > 0, got 0.0"),
    ("cycles,10\nuops_retired,-1\n", "event 'uops_retired' has negative count -1.0"),
    ("cycles,10\nuops_retired,inf\n", "event 'uops_retired' has non-finite count inf"),
    ("#meta width=0\ncycles,10\n", "issue width must be >= 1, got 0"),
], ids=["no-cycles", "negative-count", "infinite-count", "width-0"])
def test_analyze_bad_dump_content_names_its_file(tmp_path, capsys, content, message):
    ok, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
    write_sample(ideal_sample(), str(ok))
    bad.write_text(content)
    assert run_cli("analyze", "--events", str(ok), str(bad)) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "empty"])
def test_analyze_vector_out_accumulates(tmp_path, existing):
    vec_csv = tmp_path / "metrics.csv"
    if existing:  # an empty file, as `touch` leaves it, takes the header too
        vec_csv.touch()
    for i, r in enumerate((0.2, 0.5)):
        dump = tmp_path / f"w{i}.csv"
        write_sample(golden_sample(r, label=f"w{i}"), str(dump))
        assert run_cli("analyze", "--events", str(dump), "--vector-out", str(vec_csv)) == 0
    vectors = read_vectors_csv(str(vec_csv))
    assert [v.label for v in vectors] == ["w0", "w1"]
    assert "ms_uops_ratio" in vectors[0].names


def test_analyze_custom_tree_and_width(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps([
        {"name": "Retiring", "formula": "uops_retired / (meta.width * meta.cycles)"},
    ]))
    dump = tmp_path / "d.csv"
    dump.write_text(
        "cycles,100\nuops_retired,92\ninstructions_retired,80\n"
        "l1d_miss_occupancy,0\nl1d_miss_cycles,0\n"
    )
    out = tmp_path / "o.json"
    assert run_cli("analyze", "--events", str(dump), "--tree", str(tree),
                   "--width", "2", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["breakdown"]["children"][0]["fraction"] == pytest.approx(92 / 200)


# ---------------------------------------------------------------------------
# cluster


def _metrics_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    rows = ["label,m0,m1,m2"]
    centers = {"a": (0, 0, 0), "b": (5, 5, 5)}
    for name, center in centers.items():
        for i in range(2):
            vals = [c + 0.01 * i for c in center]
            rows.append(f"{name}{i}," + ",".join(str(v) for v in vals))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("flags", [(), ("--no-standardize",)], ids=["standardized", "raw"])
def test_cluster_identical_vectors_merge_at_distance_0(tmp_path, flags):
    path = tmp_path / "same.csv"
    path.write_text("label,a,b\nw0,1.0,2.0\nw1,1.0,2.0\nw2,1.0,2.0\n")
    out = tmp_path / "c.json"
    assert run_cli("cluster", "--metrics", str(path), *flags, "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["retained_components"] == 1
    assert doc["explained"] == [0.0, 0.0]
    assert [m["distance"] for m in doc["dendrogram"]["merges"]] == [0.0, 0.0]


def test_metrics_csv_with_a_cr_in_a_label_and_a_metric_name_reads_back(tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps([
        {"name": "Re\rtiring", "formula": "uops_retired / (meta.width * meta.cycles)"},
    ]))
    dump, metrics = tmp_path / "d.csv", tmp_path / "m.csv"
    write_sample(golden_sample(0.3), str(dump))
    for label in ("a\rb", "c"):  # the first writes the header, the second appends
        assert run_cli("--quiet", "analyze", "--events", str(dump), "--tree", str(tree),
                       "--label", label, "--vector-out", str(metrics)) == 0
    vectors = read_vectors_csv(str(metrics))
    assert [(v.label, v.names[0]) for v in vectors] == [("a\rb", "Re\rtiring"), ("c", "Re\rtiring")]
    assert run_cli("--quiet", "cluster", "--metrics", str(metrics)) == 0


def test_cluster_two_rows_prints_merge(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("label,m0\nw1,0\nw2,1\n")
    assert run_cli("cluster", "--metrics", str(path)) == 0
    assert "d=" in capsys.readouterr().out


def test_cluster_groups_recovered_with_cut(tmp_path, capsys):
    out = tmp_path / "dendro.json"
    code = run_cli("cluster", "--metrics", _metrics_csv(tmp_path),
                   "--cut", "2", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assignments = doc["cut"]["assignments"]
    assert assignments[0] == assignments[1]
    assert assignments[2] == assignments[3]
    assert assignments[0] != assignments[2]


def test_cluster_unknown_linkage_exit_2(tmp_path):
    assert run_cli("cluster", "--metrics", _metrics_csv(tmp_path),
                   "--linkage", "ward") == 2


def test_cluster_malformed_csv_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,m0\nw1,xyz\n")
    assert run_cli("cluster", "--metrics", str(bad)) == 1


def test_cluster_exit_1_when_pca_does_not_converge(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(similarity, "QL_MAX_ITERATIONS", 0)
    out = tmp_path / "d.json"
    assert run_cli("cluster", "--metrics", _metrics_csv(tmp_path), "-o", str(out)) == 1
    assert "did not converge in 0 iterations" in capsys.readouterr().err
    assert not out.exists()


def test_cluster_exit_1_on_metrics_without_metric_columns(tmp_path, capsys):
    metrics = tmp_path / "labels.csv"
    metrics.write_text("label\nw1\nw2\nw3\n")
    out = tmp_path / "d.json"
    assert run_cli("cluster", "--metrics", str(metrics), "-o", str(out)) == 1
    assert "at least one metric column" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("big", ["1e200", "1.7e308"])
@pytest.mark.parametrize("flags", [(), ("--no-standardize",)])
def test_cluster_exit_1_when_metric_values_overflow(tmp_path, capsys, big, flags):
    metrics = tmp_path / "big.csv"
    metrics.write_text(f"label,m0,m1\nw1,0.5,{big}\nw2,0.25,-{big}\nw3,1,0\n")
    out = tmp_path / "d.json"
    assert run_cli("cluster", "--metrics", str(metrics), *flags, "-o", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "is not finite: metric values too large" in err[0]
    assert not out.exists()


def test_cluster_no_standardize(tmp_path):
    out = tmp_path / "d.json"
    assert run_cli("cluster", "--metrics", _metrics_csv(tmp_path),
                   "--no-standardize", "-o", str(out)) == 0
    assert json.loads(out.read_text())["standardized"] is False


# ---------------------------------------------------------------------------
# list-motifs / misc


def test_list_motifs_eight_families(capsys):
    assert run_cli("list-motifs") == 0
    out = capsys.readouterr().out
    headings = [l for l in out.splitlines() if l and not l.startswith(" ")]
    assert headings == [
        "Matrix", "Sampling", "Transform", "Graph", "Logic", "Set", "Sort", "Statistic",
    ]
    assert "  transform.fft2d" in out


LIST_MOTIFS = """\
Matrix
  matrix.add                 arity 2  matrix, matrix -> matrix
  matrix.fully_connected     arity 3  tensor, matrix, tensor -> tensor
  matrix.hadamard            arity 2  matrix, matrix -> matrix
  matrix.multiply            arity 2  matrix, matrix -> matrix
  matrix.sigmoid             arity 1  tensor -> tensor
  matrix.subtract            arity 2  matrix, matrix -> matrix
  matrix.tanh                arity 1  tensor -> tensor
Sampling
  sampling.avg_pool          arity 1  tensor -> tensor
  sampling.downsample        arity 1  matrix -> matrix
  sampling.dropout           arity 1  tensor -> tensor
  sampling.max_pool          arity 1  tensor -> tensor
  sampling.random_sample     arity 1  table|text -> same as input
Transform
  transform.convolution      arity 2  tensor, tensor -> tensor
  transform.fft              arity 1  matrix -> matrix
  transform.fft2d            arity 1  matrix -> matrix
  transform.ifft             arity 1  matrix -> matrix
  transform.ifft2d           arity 1  matrix -> matrix
Graph
  graph.connected_components arity 1  graph -> table
  graph.pagerank             arity 1  graph -> matrix
Logic
  logic.md5                  arity 1  text -> text
  logic.relu                 arity 1  tensor -> tensor
Set
  set.difference             arity 2  kv, kv -> kv
  set.filter                 arity 1  table -> table
  set.grep                   arity 1  text -> text
  set.intersect              arity 2  kv, kv -> kv
  set.project                arity 1  table -> table
  set.select                 arity 1  table -> table
  set.table_union            arity 2  table, table -> table
  set.union                  arity 2  kv, kv -> kv
Sort
  sort.sort                  arity 1  matrix|table|text -> same as input
Statistic
  statistic.aggregate        arity 1  table -> table
  statistic.batch_norm       arity 1  tensor -> tensor
  statistic.cosine_norm      arity 1  tensor -> tensor
  statistic.count            arity 1  any -> kv
  statistic.wordcount        arity 1  text -> kv
"""


def test_list_motifs_output_pinned(capsys):
    assert run_cli("list-motifs") == 0
    assert capsys.readouterr().out == LIST_MOTIFS


def test_unknown_subcommand_exit_2():
    assert run_cli("frobnicate") == 2


# Every command whose text the CLI must keep: each parser's help, the
# registry listing and three usage errors. The transcript is pinned in
# cli_text_pinned.txt; argparse lays out help and usage text differently
# across Python versions, so the text is compared only on the version it was
# recorded with, and the exit codes everywhere.
PINNED_TEXT_COMMANDS = [
    "--help",
    "generate --help",
    *(f"generate {kind} --help" for kind in ("text", "graph", "matrix", "tensor", "table")),
    *(f"{command} --help" for command in ("run", "analyze", "cluster", "validate", "list-motifs")),
    "list-motifs",
    "run",
    "frobnicate",
    "cluster --metrics m.csv --linkage bogus",
]
PINNED_TEXT_PYTHON = (3, 11)
PINNED_TEXT = os.path.join(os.path.dirname(__file__), "cli_text_pinned.txt")


def cli_transcript() -> str:
    """`$ motifbench ARGS`, `[exit N]`, stdout, then stderr under
    `[stderr]`, for each pinned command in turn."""
    parts = []
    for command in PINNED_TEXT_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split())
        parts.append(f"$ motifbench {command}\n[exit {code}]\n{out.getvalue()}")
        if err.getvalue():
            parts.append(f"[stderr]\n{err.getvalue()}")
    return "".join(parts)


def test_cli_text_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = cli_transcript()
    with open(PINNED_TEXT, encoding="utf-8") as fh:
        pinned = fh.read()

    def exits(text):
        return re.findall(r"^\$ (.*)\n\[exit (\d+)\]$", text, re.M)

    assert exits(got) == exits(pinned)
    if sys.version_info[:2] == PINNED_TEXT_PYTHON:
        assert got == pinned


def test_quiet_suppresses_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("--quiet", "run", "--spec", shipped_spec_path("index"))
    assert code == 0
    assert capsys.readouterr().out == ""


def test_run_csv_flattening(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.csv"
    code = run_cli("--csv", "run", "--spec", shipped_spec_path("index"),
                   "--repeat", "2", "--report", str(report))
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "workload,repeat,id,motif,wall_ns,in_bytes,out_bytes"
    assert len(lines) == 1 + 2 * 4  # header + repeats * invocations


def _csv_file_records(path) -> list:
    return [record for _, record in csv_records(read_input(str(path)), str(path))]


# A bare CR in an unquoted field would read back as a line break.
def test_run_csv_with_a_cr_in_the_workload_name_reads_back(tmp_path):
    spec, report = tmp_path / "cr.spec", tmp_path / "report.csv"
    spec.write_text('workload "a\rb"\ninput d = generate.text(bytes=64, seed=1)\n'
                    "node s = sort.sort(d)\n", newline="")
    assert run_cli("--quiet", "--csv", "run", "--spec", str(spec), "--report", str(report)) == 0
    header, *rows = _csv_file_records(report)
    assert header == ["workload", "repeat", "id", "motif", "wall_ns", "in_bytes", "out_bytes"]
    assert [row[:4] for row in rows] == [["a\rb", "0", "s", "sort.sort"]]
    assert len(rows[0]) == len(header)


def test_analyze_csv_with_a_cr_in_a_metric_name_reads_back(tmp_path):
    tree, dump, out = tmp_path / "tree.json", tmp_path / "d.csv", tmp_path / "flat.csv"
    tree.write_text(json.dumps([{"name": "A\rB", "formula": "uops_retired / meta.cycles",
                                 "expected_fraction": False}]))
    write_sample(golden_sample(0.3), str(dump))
    assert run_cli("--quiet", "--csv", "analyze", "--events", str(dump), "--tree", str(tree),
                   "-o", str(out)) == 0
    records = _csv_file_records(out)
    assert [record[0] for record in records] == ["metric", "A\rB", "ipc", "mlp", "ms_uops_ratio"]
    assert {len(record) for record in records} == {2}


# ipc and mlp always; ms_uops_ratio only from a dump that counts both of its
# events. A tree on instructions_retired alone lets the dump leave them out.
@pytest.mark.parametrize("dropped, scalars", [
    ((), ["ipc", "mlp", "ms_uops_ratio"]),
    (("ms_uops", "uops_retired"), ["ipc", "mlp"]),
], ids=["with-ms-uops", "without"])
def test_every_analyze_output_lists_the_same_scalars(tmp_path, dropped, scalars):
    tree, dump = tmp_path / "tree.json", tmp_path / "d.csv"
    tree.write_text(json.dumps({"name": "Ipc", "formula": "instructions_retired / meta.cycles",
                                "expected_fraction": False}))
    sample = golden_sample(0.3)
    for event in dropped:
        sample = _without(sample, event)
    write_sample(sample, str(dump))
    base = ["--quiet", "analyze", "--events", str(dump), "--tree", str(tree)]
    assert run_cli(*base, "-o", str(tmp_path / "a.json"), "--vector-out",
                   str(tmp_path / "m.csv")) == 0
    assert run_cli("--csv", *base, "-o", str(tmp_path / "a.csv")) == 0
    doc = json.loads((tmp_path / "a.json").read_text())
    keys = list(doc)
    assert keys[keys.index("breakdown") + 1:] == scalars
    rows = _csv_file_records(tmp_path / "a.csv")
    assert [row[0] for row in rows[-len(scalars):]] == scalars
    assert [row[0] for row in rows[1:-len(scalars)]] == ["Ipc"]
    header = _csv_file_records(tmp_path / "m.csv")[0]
    assert header[-len(scalars):] == scalars and header[:-len(scalars)] == ["label", "Ipc"]


def test_analyze_csv_flattening(tmp_path):
    dump = tmp_path / "d.csv"
    write_sample(ideal_sample(), str(dump))
    out = tmp_path / "flat.csv"
    assert run_cli("--csv", "analyze", "--events", str(dump), "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert any(line.startswith("Retiring,") for line in lines)


def test_cluster_csv_flattening(tmp_path):
    out = tmp_path / "merges.csv"
    assert run_cli("--csv", "cluster", "--metrics", _metrics_csv(tmp_path),
                   "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b,distance,new_id,size"
    assert len(lines) == 1 + 3  # 4 leaves -> 3 merges


def test_writes_create_missing_parent_directories(tmp_path):
    dump = tmp_path / "d.csv"
    write_sample(ideal_sample(), str(dump))
    out = tmp_path / "new"
    assert run_cli("--csv", "analyze", "--events", str(dump), "-o", str(out / "a" / "a.csv")) == 0
    assert run_cli("analyze", "--events", str(dump),
                   "--vector-out", str(out / "v" / "m.csv")) == 0
    assert run_cli("--csv", "cluster", "--metrics", _metrics_csv(tmp_path),
                   "-o", str(out / "c" / "c.csv")) == 0
    assert (out / "a" / "a.csv").read_text().startswith("metric,value\n")
    assert read_vectors_csv(str(out / "v" / "m.csv"))[0].names[0] == "Retiring"
    assert (out / "c" / "c.csv").read_text().startswith("a,b,distance")


# A JSON document is one write; a CSV file is a write per row.
@pytest.mark.parametrize("argv, fail_at", [
    (("analyze", "--events", "{dump}", "-o", "{out}"), 1),
    (("--csv", "cluster", "--metrics", "{metrics}", "-o", "{out}"), 3),
], ids=["json", "csv"])
@pytest.mark.parametrize("existing", [True, False], ids=["over-old-file", "fresh-path"])
def test_failed_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch, argv, fail_at,
                                             existing):
    dump = tmp_path / "d.csv"
    write_sample(ideal_sample(), str(dump))
    metrics = _metrics_csv(tmp_path)
    out = tmp_path / "out" / "result"
    if existing:
        out.parent.mkdir()
        out.write_bytes(b"old bytes\n")
    fail_on_write(monkeypatch, fail_at)
    argv = [a.format(dump=dump, metrics=metrics, out=out) for a in argv]
    assert run_cli(*argv) == 1
    assert "No space left" in capsys.readouterr().err
    assert os.listdir(out.parent) == (["result"] if existing else [])
    if existing:
        assert out.read_bytes() == b"old bytes\n"


def test_flag_range_validation_exits_2(tmp_path):
    assert run_cli("run", "--spec", "x.spec", "--repeat", "0") == 2
    assert run_cli("cluster", "--metrics", "m.csv", "--variance", "1.5") == 2
    assert run_cli("analyze", "--events", "e.csv", "--width", "0") == 2


@pytest.mark.parametrize("argv, message", [
    (("run", "--spec", "x.spec", "--repeat", "x"), "--repeat: must be an integer >= 1, got 'x'"),
    (("run", "--spec", "x.spec", "--repeat", "0"), "--repeat: must be an integer >= 1, got '0'"),
    (("analyze", "--events", "e.csv", "--width", "1.5"),
     "--width: must be an integer >= 1, got '1.5'"),
    (("cluster", "--metrics", "m.csv", "--variance", "abc"),
     "--variance: must be a number in (0, 1], got 'abc'"),
    (("cluster", "--metrics", "m.csv", "--variance", "nan"),
     "--variance: must be a number in (0, 1], got 'nan'"),
])
def test_flag_type_errors_state_the_rule(capsys, argv, message):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: argument {message}")
    assert "_positive" not in err and "_variance" not in err


@pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "-1", "0", "1e400", "x"])
def test_run_duration_must_be_positive_finite(capsys, duration):
    # `{duration}` goes verbatim into a collector command line.
    assert run_cli("run", "--spec", "x.spec", f"--duration={duration}") == 2
    err = capsys.readouterr().err
    assert f"argument --duration: must be a finite number > 0, got '{duration}'" in err


def test_main_calls_do_not_share_state(tmp_path, capsys):
    # The parser is built once per process; each call must still see only
    # its own flags.
    assert build_parser() is build_parser()
    dump = tmp_path / "d.csv"
    write_sample(golden_sample(0.3, width=4), str(dump))
    out = tmp_path / "out"
    analyze = ("analyze", "--events", str(dump))
    cluster = ("cluster", "--metrics", _metrics_csv(tmp_path), "-o", str(out))

    for quiet in (("--quiet", *analyze), (*analyze, "--quiet")):
        assert run_cli(*quiet) == 0
        assert capsys.readouterr().out == ""
        assert run_cli(*analyze) == 0
        assert capsys.readouterr().out.startswith("label: ")

    assert run_cli("--csv", *analyze, "-o", str(out)) == 0
    assert out.read_text().startswith("metric,value\n")
    assert run_cli(*analyze, "-o", str(out)) == 0
    assert json.loads(out.read_text())["width"] == 4

    assert run_cli(*analyze, "--width", "6", "-o", str(out)) == 0
    assert json.loads(out.read_text())["width"] == 6
    assert run_cli(*analyze, "-o", str(out)) == 0
    assert json.loads(out.read_text())["width"] == 4

    assert run_cli(*cluster, "--cut", "3") == 0
    assert json.loads(out.read_text())["cut"]["clusters"] == 3
    assert run_cli(*cluster) == 0
    assert "cut" not in json.loads(out.read_text())

    assert run_cli(*analyze) == 0
    assert run_cli(*cluster, "--linkage", "bogus") == 2
    assert run_cli(*analyze) == 0
    assert "label: " in capsys.readouterr().out


def test_global_flags_accepted_after_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("run", "--spec", shipped_spec_path("index"), "--quiet")
    assert code == 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# input files

_TREE = '[{"name": "Retiring", "formula": "uops_retired / (meta.width * meta.cycles)"}]\n'
_DUMP = "#meta width=4\n#meta cycles=100\nuops_retired,92\n"

# input kind -> (file name, content with a byte that is not UTF-8, its line,
# the command reading it); {path} is the bad file, {ok} a valid event dump.
_BAD_UTF8 = {
    "spec-validate": ("w.spec", b'workload "w"\n# caf\xff\n', 2, "validate --spec {path}"),
    "spec-run": ("w.spec", b'workload "w"\n# caf\xff\n', 2, "run --spec {path}"),
    "event-dump": ("d.csv", b"#meta width=4\n#meta cycles=100\nuops_\xff,9\n", 3,
                   "analyze --events {path}"),
    "mapping": ("m.csv", b"a,b\n\xff,c\n", 2, "analyze --events {ok} --mapping {path}"),
    "tree": ("t.json", b'[{"name": "\xff", "formula": "1"}]\n', 1,
             "analyze --events {ok} --tree {path}"),
    "metrics": ("v.csv", b"label,m0\nw1,0\nw\xff,1\n", 3, "cluster --metrics {path}"),
    "seed-corpus": ("c.txt", b"one line\nbad \xff line\n", 2,
                    "generate text --bytes 100 --seed-corpus {path} -o {out}"),
    "corpus": ("c.txt", b"one line\nbad \xff line\n", 2, "run --spec {spec}"),
    "graph": ("g", b"#graph v1 3 1\n0 1\n1 \xff\n", 3, "run --spec {spec}"),
    "kv": ("k", b"#kv v1\na\t1\nb\t\xff\n", 3, "run --spec {spec}"),
    "table": ("t", b"#table v1\na:string\nx\n\xff\n", 4, "run --spec {spec}"),
    "text-matrix": ("m", b"#matrix v1 2 1 text\n1.0\n\xff\n", 3, "run --spec {spec}"),
    "header": ("g", b"#graph v1 \xff\n", 1, "run --spec {spec}"),
}
_KIND_OF_FILE = {"corpus": "text", "graph": "graph", "kv": "kv", "table": "table",
                 "text-matrix": "matrix", "header": "graph"}


@pytest.mark.parametrize("case", sorted(_BAD_UTF8))
def test_input_not_utf8_exits_1_naming_path_and_line(tmp_path, capsys, case):
    name, content, line, command = _BAD_UTF8[case]
    path = tmp_path / name
    path.write_bytes(content)
    ok = tmp_path / "ok.csv"
    ok.write_text(_DUMP)
    spec = tmp_path / "in.spec"
    spec.write_text(f'workload "w"\ninput d : {_KIND_OF_FILE.get(case, "text")} @ "{path}"\n'
                    "node n = statistic.count(d)\n")
    argv = command.format(path=path, ok=ok, spec=spec, out=tmp_path / "out").split()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}:{line}: not valid UTF-8 (")


def test_run_graph_vertex_count_beyond_64_bits_exits_1(tmp_path, capsys):
    path = tmp_path / "g"
    path.write_text("#graph v1 18446744073709551616 1\n")
    spec = tmp_path / "in.spec"
    spec.write_text(f'workload "w"\ninput g : graph @ "{path}"\n'
                    "node c = graph.connected_components(g)\n")
    assert run_cli("run", "--spec", str(spec)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}:1: vertex_count must be")


# input kind -> (file name, content with an entry its reader refuses, the
# line and message of the error, the command); formatted as in _BAD_UTF8.
_REFUSED_ENTRY = {
    "mapping-abstract": ("m.csv", "x,A\nx,B\n", 2, "duplicate abstract name 'x'",
                         "analyze --events {ok} --mapping {path}"),
    "mapping-platform": ("m.csv", "x,A\ny,A\n", 2, "platform counter 'A' mapped twice",
                         "analyze --events {ok} --mapping {path}"),
    "mapping-empty-platform": ("m.csv", "x,A\nuops_retired,\n", 2,
                               "expected 'abstract,platform', got 'uops_retired,'",
                               "analyze --events {ok} --mapping {path}"),
    "event-dump-empty-name": ("d.csv", "cycles,10\n,5\n", 2,
                              "expected 'event_name,count', got ',5'", "analyze --events {path}"),
    "event-dump-meta": ("d.csv", "#meta width=4\n#meta width=8\ncycles,10\n", 2,
                        "duplicate metadata key 'width'", "analyze --events {path}"),
    "event-dump-unknown-meta": ("d.csv", "#meta cycles=100\n#meta widht=8\nuops_retired,5\n",
                                2, "unknown metadata key 'widht'", "analyze --events {path}"),
    "table-schema": ("t", "#table v1\nid:integer,,x:real,\n1,2.0\n", 2,
                     "bad schema entry ''", "run --spec {spec}"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_ENTRY))
def test_input_entry_refused_exits_1_naming_its_line(tmp_path, capsys, case):
    name, content, line, message, command = _REFUSED_ENTRY[case]
    path = tmp_path / name
    path.write_text(content)
    ok = tmp_path / "ok.csv"
    ok.write_text(_DUMP)
    spec = tmp_path / "in.spec"
    spec.write_text(f'workload "w"\ninput t : table @ "{path}"\n'
                    "node n = statistic.count(t)\n")
    assert run_cli(*command.format(path=path, ok=ok, spec=spec).split()) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:{line}: {message}"]


@pytest.mark.parametrize("content, read", [
    ('workload "w"\ninput a = generate.text(bytes=64, seed=1)\n'
     "node c = statistic.count(a)  # tally\n", workload.parse_spec_file),
    (_DUMP + "# comment\ncycles,100\n", topdown.load_sample),
    ("# abstract,platform\nuops_retired, UOPS.RETIRED\ncycles,CPU_CLK\n", topdown.load_mapping),
    ('[\n  {"name": "A",\n   "formula": "1"}\n]\n', topdown.load_tree),
], ids=["spec", "event-dump", "mapping", "tree"])
def test_crlf_input_reads_as_lf(tmp_path, content, read):
    # same file name, since a dump without a label is labelled by its name
    lf, crlf = tmp_path / "lf" / "in", tmp_path / "crlf" / "in"
    lf.parent.mkdir()
    crlf.parent.mkdir()
    lf.write_bytes(content.encode())
    crlf.write_bytes(content.replace("\n", "\r\n").encode())
    assert read(str(crlf)) == read(str(lf))


def test_readme_commands_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("motifbench ")]
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
    subcommands = {argv[1] for argv in commands}
    assert subcommands == {"generate", "validate", "run", "list-motifs", "analyze", "cluster"}


@pytest.mark.parametrize("label", ["", "override"])
def test_analyze_label_must_be_non_empty(tmp_path, capsys, label):
    dump = tmp_path / "d.csv"
    write_sample(golden_sample(0.25, label="dump"), str(dump))
    out = tmp_path / "b.json"
    code = run_cli("analyze", "--events", str(dump), "--label", label, "-o", str(out))
    captured = capsys.readouterr()
    if label:
        assert code == 0
        assert json.loads(out.read_text())["label"] == label
        return
    assert code == 2
    assert captured.err.splitlines()[-1].endswith(
        "error: argument --label: must be a non-empty label, got ''")
    assert not out.exists()


# The analysis half: only analyze, cluster and run --counters import it.
ANALYSIS_MODULES = ("motifbench.topdown", "motifbench.similarity", "ast")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(motifbench.__file__)))


def fresh_python(args: list, cwd=None) -> subprocess.CompletedProcess:
    """Run python with `args` in a fresh interpreter without site, which may
    load modules itself, and so without the modules this process imported."""
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, cwd=cwd, check=False)


def test_cli_import_loads_no_module_that_only_some_commands_need():
    # The cmd: collector imports subprocess and shlex when it runs.
    unwanted = ("dataclasses", "inspect", "subprocess", "shlex", "importlib.resources",
                *ANALYSIS_MODULES)
    code = f"import motifbench.cli, sys; print([m for m in {unwanted!r} if m in sys.modules])"
    result = fresh_python(["-c", code])
    assert (result.returncode, result.stdout) == (0, "[]\n")


def _modules_loaded_by(argv: list, cwd) -> tuple[list, list]:
    """In a fresh interpreter, `import motifbench.cli` and then main(argv),
    which must exit 0: the ANALYSIS_MODULES loaded, and the motifbench
    modules main loaded past the cli import."""
    code = (
        "import contextlib, io, json, sys\n"
        "import motifbench.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert motifbench.cli.main({argv!r}) == 0\n"
        f"print(json.dumps([[m for m in {ANALYSIS_MODULES!r} if m in sys.modules],\n"
        "                  sorted(m for m in set(sys.modules) - before\n"
        "                         if m.partition('.')[0] == 'motifbench')]))\n"
    )
    result = fresh_python(["-c", code], cwd)
    assert (result.returncode, result.stderr) == (0, "")
    return tuple(json.loads(result.stdout))


@pytest.mark.parametrize("argv", [
    ["run", "--spec", shipped_spec_path("index")],
    ["generate", "text", "--bytes", "300", "-o", "corpus.txt"],
    ["generate", "table", "--orders", "5", "--items", "9", "-o", "."],
    ["validate", "--spec", shipped_spec_path("index")],
    ["list-motifs"],
], ids=["run", "generate-text", "generate-table", "validate", "list-motifs"])
def test_commands_that_never_analyze_load_nothing_past_the_cli_import(tmp_path, argv):
    # No analysis module, and no motifbench module at all: run and generate
    # execute what `import motifbench.cli` loads, so deferring more of it
    # would show here.
    assert _modules_loaded_by(argv, tmp_path) == ([], [])


def test_cluster_loads_similarity_but_not_topdown_or_ast(tmp_path):
    analysis, _ = _modules_loaded_by(["cluster", "--metrics", _metrics_csv(tmp_path)], tmp_path)
    assert analysis == ["motifbench.similarity"]


def test_analyze_without_vector_out_does_not_load_similarity(tmp_path):
    dump = tmp_path / "d.csv"
    write_sample(golden_sample(0.3), str(dump))
    analysis, _ = _modules_loaded_by(["analyze", "--events", str(dump), "-o", "a.json"],
                                     tmp_path)
    assert analysis == ["motifbench.topdown", "ast"]


def test_analysis_commands_import_what_they_call_in_a_fresh_process(tmp_path):
    # In this process the tests have imported topdown and similarity already,
    # so a missing function-local import shows only in a fresh interpreter.
    dumps = []
    for i, retiring in enumerate((0.2, 0.3, 0.4)):
        dumps.append(str(tmp_path / f"c{i}.csv"))
        write_sample(golden_sample(retiring, label=f"r{i}"), dumps[-1])
    commands = [
        ["run", "--spec", shipped_spec_path("index"), "--repeat", "3",
         "--counters", "file:" + ",".join(dumps), "--report", "report.json"],
        ["analyze", "--events", dumps[0], "-o", "breakdown.json"],
        *(["analyze", "--events", dump, "--vector-out", "m.csv"] for dump in dumps),
        ["cluster", "--metrics", "m.csv", "-o", "dendrogram.json"],
    ]
    for argv in commands:
        result = fresh_python(["-m", "motifbench", *argv], tmp_path)
        assert (result.returncode, result.stderr) == (0, ""), argv
    assert len(json.loads((tmp_path / "report.json").read_text())["counters"]["repeats"]) == 3
    assert json.loads((tmp_path / "breakdown.json").read_text())["label"] == "r0"
    assert len((tmp_path / "m.csv").read_text().splitlines()) == 4
    assert json.loads((tmp_path / "dendrogram.json").read_text())["labels"] == ["r0", "r1", "r2"]
