import json
import os
import sys

import pytest

import motifbench
from motifbench.cli import main
from motifbench.similarity import read_vectors_csv
from motifbench.topdown import write_sample

from .topdown_samples import golden_sample, ideal_sample


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


def test_generate_largest_seed_accepted(tmp_path):
    assert run_cli("generate", "matrix", "--rows", "2", "--cols", "2",
                   "--rng-seed", str(2**64 - 1), "-o", str(tmp_path / "m")) == 0


@pytest.mark.parametrize("dist", ["uniform:1,2,3", "gaussian:0,1,2", "uniform:a,1", "poisson:3"])
def test_generate_bad_dist_is_usage_error(tmp_path, capsys, dist):
    code = run_cli("generate", "matrix", "--rows", "2", "--cols", "2",
                   "--dist", dist, "-o", str(tmp_path / "m"))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    oid = item.column_index("order_id")
    assert all(r[oid] in order_ids for r in item.rows)


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
        "run", "--spec", motifbench.shipped_spec_path("sift-like"),
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
        "run", "--spec", motifbench.shipped_spec_path("index"), "--repeat", "3",
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
        "run", "--spec", motifbench.shipped_spec_path("index"), "--repeat", "2",
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
        "run", "--spec", motifbench.shipped_spec_path("index"),
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
        "run", "--spec", motifbench.shipped_spec_path("index"),
        "--counters", f'cmd:{sys.executable} -c "import sys; sys.exit(3)"',
    )
    assert code == 1
    assert "collector exited" in capsys.readouterr().err


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
        "run", "--spec", motifbench.shipped_spec_path("index"), "--repeat", "2",
        "--counters", f"cmd:{sys.executable} {collector} {{pid}} {{duration}}",
        "--duration", "0.1", "--report", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert len(doc["repeats"]) == 2
    assert doc["counters"]["averaged"]["events"]["uops_retired"] == 800


def test_validate_shipped_specs_exit_0(capsys):
    for name in motifbench.SHIPPED_SPECS:
        assert run_cli("validate", "--spec", motifbench.shipped_spec_path(name)) == 0


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


def test_analyze_missing_events_exit_1(tmp_path, capsys):
    dump = tmp_path / "thin.csv"
    dump.write_text("cycles,100\nuops_retired,10\n")
    code = run_cli("analyze", "--events", str(dump))
    assert code == 1
    err = capsys.readouterr().err
    assert "missing events" in err and "uops_issued" in err


def test_analyze_vector_out_accumulates(tmp_path):
    vec_csv = tmp_path / "metrics.csv"
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


def test_quiet_suppresses_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("--quiet", "run", "--spec", motifbench.shipped_spec_path("index"))
    assert code == 0
    assert capsys.readouterr().out == ""


def test_run_csv_flattening(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.csv"
    code = run_cli("--csv", "run", "--spec", motifbench.shipped_spec_path("index"),
                   "--repeat", "2", "--report", str(report))
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "workload,repeat,id,motif,wall_ns,in_bytes,out_bytes"
    assert len(lines) == 1 + 2 * 4  # header + repeats * invocations


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


def test_flag_range_validation_exits_2(tmp_path):
    assert run_cli("run", "--spec", "x.spec", "--repeat", "0") == 2
    assert run_cli("cluster", "--metrics", "m.csv", "--variance", "1.5") == 2
    assert run_cli("analyze", "--events", "e.csv", "--width", "0") == 2


def test_global_flags_accepted_after_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("run", "--spec", motifbench.shipped_spec_path("index"), "--quiet")
    assert code == 0
    assert capsys.readouterr().out == ""
