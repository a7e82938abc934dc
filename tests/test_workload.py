import json
import math

import pytest

from motifbench.dataio import checksum_payload, load_dataset, save_dataset
from motifbench.datasets import Matrix, TextCorpus
from motifbench.errors import SpecError
from motifbench.generators import gen_matrix
from motifbench.kernels import REGISTRY
from motifbench.kernels.matrixops import mat_elementwise
from motifbench.kernels.sampling import downsample
from motifbench.kernels.sorting import sort_records
from motifbench.kernels.statistic import count_records
from motifbench.kernels.transform import fft
from motifbench.workload import (
    InvocationRecord,
    MotifInvocation,
    RunReport,
    WorkloadRuntimeError,
    execute,
    parse_spec,
    parse_spec_file,
    family_fractions,
    report_document,
    validate_spec,
)

from .shipped import shipped_spec_path

GOOD_SPEC = """
workload "tiny"
input m = generate.matrix(rows=8, cols=8, dist=uniform, lo=0, hi=1, seed=1)
node s = sort.sort(m, key=0)   # order rows
output s @ "{out}"
"""


def test_parse_good_spec():
    spec = parse_spec(GOOD_SPEC.format(out="x.matrix"))
    assert spec.name == "tiny"
    assert len(spec.inputs) == 1 and len(spec.invocations) == 1
    assert spec.invocations[0].motif == "sort.sort"
    assert spec.invocations[0].params == (("key", "0"),)
    assert spec.invocations[0].kernel_params == {"key": 0}


def test_parse_undefined_id_with_line():
    text = 'workload "w"\nnode y = transform.fft(x)\n'
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    diag = err.value.diagnostics[0]
    assert "undefined dataset id 'x'" in str(diag)
    assert diag.line == 2


def test_parse_self_cycle():
    text = 'workload "w"\nnode y = transform.fft(y)\n'
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert any("cycle detected" in str(d) for d in err.value.diagnostics)


def test_parse_forward_reference_is_cycle():
    text = (
        'workload "w"\n'
        "input m = generate.matrix(rows=2, cols=2, seed=1)\n"
        "node a = transform.fft(b)\n"
        "node b = transform.fft(m)\n"
    )
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert any("cycle detected" in str(d) for d in err.value.diagnostics)


def test_parse_forward_reference_to_input_is_cycle():
    text = (
        'workload "w"\n'
        "node c = statistic.count(a)\n"
        "input a = generate.matrix(rows=2, cols=2, seed=1)\n"
    )
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert [str(d) for d in err.value.diagnostics] == [
        "<spec>:2: cycle detected: 'c' consumes 'a', which is not defined earlier"
    ]


def test_parse_unknown_motif():
    text = 'workload "w"\ninput m = generate.matrix(rows=2, cols=2, seed=1)\nnode a = warp.zoom(m)\n'
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert any("unknown motif" in str(d) for d in err.value.diagnostics)


def test_parse_syntax_error_lineno():
    with pytest.raises(SpecError) as err:
        parse_spec('workload "w"\nnode ???\n')
    assert err.value.diagnostics[0].line == 2


def test_parse_duplicate_id():
    text = (
        'workload "w"\n'
        "input m = generate.matrix(rows=2, cols=2, seed=1)\n"
        "node m = transform.fft(m)\n"
    )
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert any("duplicate dataset id" in str(d) for d in err.value.diagnostics)


def test_parse_bad_genspec_param():
    text = 'workload "w"\ninput g = generate.graph(vertices=100, edges=10, model=rmat, seed=1)\n'
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert any("power-of-two" in str(d) for d in err.value.diagnostics)


def test_validate_arity_diagnostic():
    spec = parse_spec(
        'workload "w"\n'
        "input a = generate.matrix(rows=2, cols=2, seed=1)\n"
        "input b = generate.matrix(rows=2, cols=2, seed=2)\n"
        "node c = matrix.multiply(a, b)\n"
    )
    # strip one operand via object surgery to exercise validate_spec directly
    inv = spec.invocations[0]
    broken = spec._replace(
        invocations=(MotifInvocation(inv.result_id, inv.motif, ("a",), inv.params, inv.line),),
    )
    diags = validate_spec(broken)
    assert any("takes 2 operand(s)" in d.message for d in diags)


def test_validate_kind_mismatch():
    text = (
        'workload "w"\n'
        "input g = generate.graph(vertices=8, edges=4, model=uniform, seed=1)\n"
        "node s = sort.sort(g)\n"
    )
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert any("cannot take graph payload" in str(d) for d in err.value.diagnostics)


def test_validate_param_range():
    text = (
        'workload "w"\n'
        "input t = generate.text(bytes=500, seed=1)\n"
        "node s = sampling.random_sample(t, fraction=1.5)\n"
    )
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert any("out of range" in str(d) for d in err.value.diagnostics)


def test_validate_clean_chain_returns_empty():
    spec = parse_spec(GOOD_SPEC.format(out="x.matrix"))
    assert validate_spec(spec) == []


_MATRIX = "generate.matrix(rows=2, cols=2, seed=1)"


@pytest.mark.parametrize("body, problems", [
    # problems come in line order, not in the order of the checks
    (f"node a = transform.fft(x)\ninput a = {_MATRIX}\n",
     ["<spec>:2: undefined dataset id 'x'", "<spec>:3: duplicate dataset id 'a'"]),
    # a node whose own check fails still defines its id, for nodes and outputs
    (f"input m = {_MATRIX}\nnode a = warp.zoom(m)\nnode b = transform.fft(a)\n",
     ["<spec>:3: unknown motif 'warp.zoom'"]),
    (f'input m = {_MATRIX}\nnode a = warp.zoom(m)\noutput a @ "a.matrix"\n',
     ["<spec>:3: unknown motif 'warp.zoom'"]),
    # an input of unknown kind defines its id with unknown kind
    ('input m : foo @ "m.foo"\nnode s = sort.sort(m)\n',
     ["<spec>:2: unknown payload kind 'foo'"]),
])
def test_validate_reports_each_problem_once_in_line_order(body, problems):
    with pytest.raises(SpecError) as err:
        parse_spec('workload "w"\n' + body)
    assert [str(d) for d in err.value.diagnostics] == problems


# ---------------------------------------------------------------------------
# execution


def test_execute_single_invocation_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = parse_spec(GOOD_SPEC.format(out="out/x.matrix"))
    reports = execute(spec, repeat=1)
    assert len(reports) == 1
    rep = reports[0]
    assert len(rep.invocations) == 1
    assert rep.family_fractions == {"sort": 1.0}
    assert rep.invocations[0].in_bytes > 0 and rep.invocations[0].out_bytes > 0
    assert (tmp_path / "out" / "x.matrix").exists()


def test_execute_repeats_are_checksum_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = parse_spec(GOOD_SPEC.format(out="out/x.matrix"))
    reports = execute(spec, repeat=3)
    assert len(reports) == 3
    assert [r.repeat_index for r in reports] == [0, 1, 2]
    sums = [r.output_checksums["s"] for r in reports]
    assert sums[0] == sums[1] == sums[2]


def test_execute_family_fractions_sum_to_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = parse_spec_file(shipped_spec_path("sift-like"))
    reports = execute(spec, repeat=1)
    total = sum(reports[0].family_fractions.values())
    assert abs(total - 1.0) < 1e-9
    assert reports[0].total_ns >= max(r.wall_ns for r in reports[0].invocations)


def test_execute_repeat_that_differs_names_the_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []

    def drifting(data, key):
        calls.append(None)
        return TextCorpus([f"call {len(calls)}"])

    kspec = REGISTRY["sort.sort"]._replace(fn=drifting)
    monkeypatch.setitem(REGISTRY, "sort.sort", kspec)
    spec = parse_spec(GOOD_SPEC.format(out="out/x.matrix"))
    with pytest.raises(WorkloadRuntimeError) as err:
        execute(spec, repeat=3)
    assert "output 's' is not deterministic: repeat 1" in str(err.value)
    assert len(calls) == 2
    assert not (tmp_path / "out").exists()


def test_execute_file_input_and_relative_path(tmp_path):
    m = gen_matrix(4, 4, 3, "uniform", lo=0, hi=1)
    save_dataset(m, str(tmp_path / "in.matrix"))
    out_path = tmp_path / "sorted.matrix"
    text = (
        'workload "fileio"\n'
        'input m : matrix @ "in.matrix"\n'
        "node s = sort.sort(m, key=0)\n"
        f'output s @ "{out_path}"\n'
    )
    spec = parse_spec(text)
    execute(spec, repeat=1, base_dir=str(tmp_path))
    got = load_dataset(str(out_path)).payload
    assert got == sort_records(m, key=0)


def test_execute_kind_mismatch_on_file_input(tmp_path):
    save_dataset(TextCorpus(["hello"]), str(tmp_path / "in.txt"))
    text = 'workload "w"\ninput m : matrix @ "in.txt"\nnode s = sort.sort(m, key=0)\n'
    spec = parse_spec(text)
    with pytest.raises(WorkloadRuntimeError) as err:
        execute(spec, base_dir=str(tmp_path))
    assert "declared matrix" in str(err.value)


def test_execute_kernel_failure_names_invocation(tmp_path):
    text = (
        'workload "w"\n'
        "input a = generate.matrix(rows=2, cols=3, seed=1)\n"
        "input b = generate.matrix(rows=2, cols=3, seed=2)\n"
        "node p = matrix.multiply(a, b)\n"
    )
    spec = parse_spec(text)
    with pytest.raises(WorkloadRuntimeError) as err:
        execute(spec)
    assert "'p'" in str(err.value) and "matrix.multiply" in str(err.value)


def test_sift_like_manual_composition_oracle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = parse_spec_file(shipped_spec_path("sift-like"))
    reports = execute(spec, repeat=1)

    img = gen_matrix(64, 64, 11, "uniform", lo=0, hi=255)
    smooth = fft(fft(img, two_d=True, inverse=False), two_d=True, inverse=True)
    residue = mat_elementwise(img, smooth, "subtract")
    octave = downsample(residue, 2)
    ranked = sort_records(octave, key=0)
    feats = count_records(ranked)

    assert reports[0].output_checksums["ranked"] == checksum_payload(ranked)
    assert reports[0].output_checksums["feats"] == checksum_payload(feats)
    assert load_dataset(str(tmp_path / "out" / "sift-like.count.kv")).payload == feats


def test_shipped_specs_counts_and_families():
    expected = {
        "sift-like": (6, {"transform", "matrix", "sampling", "sort", "statistic"}),
        "pagerank": (4, {"graph", "matrix", "sort", "statistic"}),
        "index": (4, {"set", "statistic", "logic", "sort"}),
        "cnn-forward": (5, {"transform", "logic", "sampling", "matrix", "statistic"}),
    }
    for name, (count, families) in expected.items():
        spec = parse_spec_file(shipped_spec_path(name))
        assert validate_spec(spec) == []
        assert len(spec.invocations) == count
        assert {inv.motif.split(".")[0] for inv in spec.invocations} == families


def test_report_document_shape(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = parse_spec_file(shipped_spec_path("pagerank"))
    reports = execute(spec, repeat=2)
    doc = report_document(reports)
    assert set(doc) == {"workload", "repeats", "family_fractions"}
    assert len(doc["repeats"]) == 2
    inv = doc["repeats"][0]["invocations"][0]
    assert set(inv) == {"id", "motif", "wall_ns", "in_bytes", "out_bytes"}
    assert abs(sum(doc["family_fractions"].values()) - 1.0) < 1e-9
    json.dumps(doc)  # serializable


def test_intermediates_freed(tmp_path, monkeypatch):
    # the residue/octave intermediates are not outputs; execution should not
    # retain them in the final environment (outputs only)
    monkeypatch.chdir(tmp_path)
    text = (
        'workload "w"\n'
        "input a = generate.matrix(rows=4, cols=4, seed=1)\n"
        "node b = sort.sort(a, key=0)\n"
        "node c = sampling.downsample(b, factor=2)\n"
        'output c @ "c.matrix"\n'
    )
    reports = execute(parse_spec(text), repeat=1)
    assert set(reports[0].output_checksums) == {"c"}


def test_result_independent_of_statement_order(tmp_path, monkeypatch):
    # two independent branches joined at the end, written in both orders
    monkeypatch.chdir(tmp_path)
    head = (
        'workload "order"\n'
        "input a = generate.matrix(rows=8, cols=8, dist=uniform, lo=0, hi=1, seed=1)\n"
        "input b = generate.matrix(rows=8, cols=8, dist=uniform, lo=0, hi=1, seed=2)\n"
    )
    branch_x = "node x = sort.sort(a, key=0)\n"
    branch_y = "node y = transform.fft2d(b)\n"
    tail = 'node z = matrix.multiply(x, y)\noutput z @ "z.matrix"\n'
    one = execute(parse_spec(head + branch_x + branch_y + tail), repeat=1)
    two = execute(parse_spec(head + branch_y + branch_x + tail), repeat=1)
    assert one[0].output_checksums["z"] == two[0].output_checksums["z"]


def test_quoted_param_with_comma_and_hash():
    spec = parse_spec(
        'workload "q"\n'
        "input t = generate.text(bytes=200, seed=1)\n"
        'node g = set.grep(t, pattern="a,b # not a comment")\n'
    )
    assert dict(spec.invocations[0].params) == {"pattern": "a,b # not a comment"}


def test_parse_unterminated_quote_rejected_with_line():
    text = (
        'workload "q"\n'
        "input t = generate.text(bytes=200, seed=1)\n"
        'node g = set.grep(t, pattern="the)\n'
    )
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    (diag,) = err.value.diagnostics
    assert diag.line == 3
    assert "unterminated" in diag.message


def test_parse_duplicate_output_path_rejected_with_line():
    text = (
        'workload "q"\n'
        "input m = generate.matrix(rows=2, cols=2, seed=1)\n"
        "node s = sort.sort(m, key=0)\n"
        'output m @ "out/a.matrix"\n'
        'output s @ "out/./a.matrix"\n'
    )
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    (diag,) = err.value.diagnostics
    assert diag.line == 5
    assert "already written on line 4" in diag.message


@pytest.mark.parametrize("args", ["rows=2.7, cols=3, seed=1", "rows=2, cols=3, seed=1.9"])
def test_parse_non_integral_generator_param_rejected(args):
    text = f'workload "q"\ninput m = generate.matrix({args})\n'
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    (diag,) = err.value.diagnostics
    assert diag.line == 2
    assert "must be an integer" in diag.message


_SEEDED_LINES = [
    "input m = generate.matrix(rows=2, cols=2, seed={seed})",
    "input t = generate.text(bytes=200, seed=1)\nnode s = sampling.random_sample(t, fraction=0.5, seed={seed})",
    "input x = generate.tensor(shape=2x2, seed=1)\nnode s = sampling.dropout(x, p=0.5, seed={seed})",
]


@pytest.mark.parametrize("line", _SEEDED_LINES)
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_parse_seed_outside_64_bits_rejected_with_line(line, seed):
    text = 'workload "q"\n' + line.format(seed=seed) + "\n"
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    (diag,) = err.value.diagnostics
    assert diag.line == text.count("\n")
    assert "'seed'" in diag.message and "out of range" in diag.message


@pytest.mark.parametrize("line", _SEEDED_LINES)
def test_parse_largest_seed_accepted(line):
    parse_spec('workload "q"\n' + line.format(seed=2**64 - 1) + "\n")


@pytest.mark.parametrize("args", ["rows=2,, seed=1", "rows=2, cols=2,", ", rows=2", ","])
def test_parse_empty_argument_rejected_with_line(args):
    text = f'workload "q"\ninput m = generate.matrix({args})\n'
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    (diag,) = err.value.diagnostics
    assert diag.line == 2
    assert "empty argument" in diag.message


@pytest.mark.parametrize("args", ["", "  "])
def test_parse_empty_parentheses_mean_no_arguments(args):
    # f() reaches the generator's schema with no parameters at all
    with pytest.raises(SpecError) as err:
        parse_spec(f'workload "q"\ninput m = generate.matrix({args})\n')
    (diag,) = err.value.diagnostics
    assert "missing required parameter 'rows'" in diag.message


def test_family_fractions_all_zero_wall_times():
    reports = [
        RunReport("w", r, (InvocationRecord(f"x{r}", "sort.sort", 0, 8, 8),), 0, {}, {})
        for r in range(2)
    ]
    assert family_fractions([rec for rep in reports for rec in rep.invocations]) == {}
    assert report_document(reports)["family_fractions"] == {}
