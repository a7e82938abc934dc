import hashlib
import json
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from motifbench import topdown
from motifbench.cli import main
from motifbench.errors import EventError, FormulaError, MissingEventsError
from motifbench.topdown import (
    BreakdownNode,
    EventSample,
    MetricNode,
    MetricTree,
    average_samples,
    breakdown_to_json,
    builtin_tree,
    evaluate_tree,
    eval_formula,
    ipc,
    load_mapping,
    load_sample,
    load_tree,
    mlp,
    ms_uops_ratio,
    parse_formula,
    parse_sample,
    to_metric_vector,
    tree_from_json,
)

from .shipped import shipped_spec_path
from .topdown_samples import (
    find_node,
    golden_sample,
    ideal_sample,
    metric_names,
    random_valid_sample,
    tree_to_json,
    write_sample,
    zero_events,
)

LEVEL1_TREE = MetricTree(
    (
        MetricNode("Retiring", "uops_retired / (meta.width * meta.cycles)"),
        MetricNode(
            "Bad_Speculation",
            "(uops_issued - uops_retired + meta.width * recovery_cycles)"
            " / (meta.width * meta.cycles)",
        ),
        MetricNode("Frontend_Bound", "frontend_undelivered_slots / (meta.width * meta.cycles)"),
        MetricNode("Backend_Bound", "1 - Retiring - Bad_Speculation - Frontend_Bound"),
    )
)


# ---------------------------------------------------------------------------
# formulas


def test_formula_arithmetic():
    env = {"a": 6.0, "b": 3.0, "meta.width": 4.0}
    assert eval_formula(parse_formula("a / b + 1"), env, "t") == 3.0
    assert eval_formula(parse_formula("(a - b) * meta.width"), env, "t") == 12.0
    assert eval_formula(parse_formula("-a + 2e1"), env, "t") == 14.0


def test_formula_division_by_zero():
    with pytest.raises(FormulaError):
        eval_formula(parse_formula("1 / z"), {"z": 0.0}, "node")


def test_formula_missing_name():
    with pytest.raises(MissingEventsError):
        eval_formula(parse_formula("nope + 1"), {}, "t")


def test_formula_syntax_errors():
    for bad in ("1 +", "(a", "a b", "2 ** 3", "", "+a", "a % b", "a < b", "f(a)", "a[0]",
                "(a, b)", "'a'", "1j", "007", "True", "None", "if", "a.", "a..b", "a\x00",
                "\ud800", "1" * 5000, "__import__('os').system", "().__class__", "lambda: 1"):
        with pytest.raises(FormulaError):
            parse_formula(bad)


def test_formula_python_numerals_comments_and_dotted_names():
    env = {"UOPS_RETIRED.ALL": 2.0, "meta.width": 4.0, "a": 3.0}
    assert repr(eval_formula(parse_formula(" 0x10 + 1_000  # note "), env, "t")) == "1016.0"
    assert eval_formula(parse_formula("-a"), env, "t") == -3.0
    assert eval_formula(parse_formula("UOPS_RETIRED.ALL * meta.width"), env, "t") == 8.0


@pytest.mark.parametrize("name", ["abs", "__builtins__", "__debug__"])
def test_formula_names_resolve_only_in_the_sample(name):
    tree = MetricTree((MetricNode("A", f"{name} / meta.cycles"),))
    with pytest.raises(MissingEventsError) as err:
        evaluate_tree(EventSample({"x": 1.0}, cycles=10.0), tree)
    assert err.value.names == [name]
    with pytest.raises(MissingEventsError) as err:
        eval_formula(parse_formula(f"1 + {name}"), {}, "t")
    assert err.value.names == [name]
    assert evaluate_tree(EventSample({name: 5.0}, cycles=10.0), tree).children[0].fraction == 0.5


@pytest.mark.parametrize("formula", [
    " + ".join(["a"] * 6000), "-" * 2000 + "a", "-" * 100000 + "a", "(" * 2000 + "a" + ")" * 2000,
    " * ".join(["a"] * (topdown.MAX_FORMULA_DEPTH + 2)),
], ids=["6000-terms", "2000-minus", "100000-minus", "2000-parens", "past-limit"])
def test_formula_nested_too_deep(formula):
    with pytest.raises(FormulaError) as err:
        parse_formula(formula)
    assert len(str(err.value)) < 300
    deepest = parse_formula(" * ".join(["a"] * topdown.MAX_FORMULA_DEPTH))
    assert eval_formula(deepest, {"a": 2.0}, "t") == 2.0 ** topdown.MAX_FORMULA_DEPTH


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parse_formula_raises_only_formula_error(text):
    try:
        parse_formula(text)
    except FormulaError:
        pass


# ---------------------------------------------------------------------------
# samples


def test_parse_sample_cycles_event_line():
    sample = parse_sample("cycles,1000\nuops_retired,500\n")
    assert sample.cycles == 1000
    assert sample.events["uops_retired"] == 500


def test_parse_sample_meta_lines():
    sample = parse_sample("#meta width=8\n#meta cycles=400\n#meta label=run1\nuops_retired,3\n")
    assert sample.width == 8 and sample.cycles == 400 and sample.label == "run1"


@pytest.mark.parametrize("meta", ["width=abc", "cycles=zz", "width=" + "9" * 5000])
def test_parse_sample_rejects_bad_meta_values(meta):
    with pytest.raises(EventError, match="bad metadata value"):
        parse_sample(f"#meta {meta}\ncycles,10\nuops_retired,1\n")


def test_parse_sample_duplicate_event():
    with pytest.raises(EventError) as err:
        parse_sample("cycles,10\nuops_retired,1\nuops_retired,2\n")
    assert "uops_retired" in str(err.value)


def test_parse_sample_requires_cycles():
    with pytest.raises(EventError):
        parse_sample("uops_retired,5\n")


def test_sample_rejects_negative_and_nonfinite():
    with pytest.raises(EventError):
        EventSample({"x": -1}, cycles=10)
    with pytest.raises(EventError):
        EventSample({"x": math.inf}, cycles=10)
    with pytest.raises(EventError):
        EventSample({"x": 1}, width=0, cycles=10)
    # the cycle count is an event too, so a non-finite one is refused however it arrives
    with pytest.raises(EventError, match="'cycles' has non-finite"):
        EventSample({"x": 1}, cycles=math.inf)
    with pytest.raises(EventError, match="'cycles' has non-finite"):
        parse_sample("#meta cycles=inf\nuops_retired,1\n")


def test_sample_events_carry_its_cycle_count():
    sample = EventSample({"a": 5.0}, cycles=10.0)
    assert sample.events["cycles"] == sample.cycles
    tree = MetricTree((MetricNode("A", "a / cycles"),))
    assert evaluate_tree(sample, tree).children[0].fraction == 0.5


def test_write_then_load_roundtrip(tmp_path):
    sample = golden_sample(0.25, label="w1")
    path = str(tmp_path / "s.csv")
    write_sample(sample, path)
    back = load_sample(path)
    assert back.cycles == sample.cycles and back.width == sample.width
    for name, count in sample.events.items():
        assert back.events[name] == count


def test_average_samples_means(tmp_path):
    base = zero_events()
    samples = []
    for i, (cyc, ret) in enumerate(((100, 40), (200, 80), (300, 90))):
        ev = dict(base)
        ev["uops_retired"] = ret
        samples.append(EventSample(ev, width=4, cycles=cyc, label=f"r{i}"))
    avg = average_samples(samples)
    assert avg.cycles == 200
    assert avg.events["uops_retired"] == 70
    assert avg.label.startswith("avg(")


def test_average_samples_rejects_disagreement():
    a = EventSample({"x": 1}, cycles=10)
    b = EventSample({"y": 1}, cycles=10)
    with pytest.raises(EventError):
        average_samples([a, b])


def test_mapping_renames_platform_events(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("uops_retired,UOPS_RETIRED.RETIRE_SLOTS\ncycles,CPU_CLK_UNHALTED.THREAD\n")
    mapping = load_mapping(str(path))
    dump = tmp_path / "dump.csv"
    dump.write_text("UOPS_RETIRED.RETIRE_SLOTS,900\nCPU_CLK_UNHALTED.THREAD,1000\n")
    sample = load_sample(str(dump), mapping=mapping)
    assert sample.events["uops_retired"] == 900
    assert sample.cycles == 1000
    assert "UOPS_RETIRED.RETIRE_SLOTS" not in sample.events


# The whole text of each content error of an event dump or a mapping file,
# after the file's path. Blank lines count toward the line numbers.
DUMP_ERRORS = {
    "meta-without-value": (
        load_sample, "cycles,10\n\n#meta width\n", ":3: bad metadata line '#meta width'"),
    "event-without-comma": (
        load_sample, "cycles,10\nuops_retired 5\n",
        ":2: expected 'event_name,count', got 'uops_retired 5'"),
    "event-without-name": (
        load_sample, "cycles,10\n ,5\n", ":2: expected 'event_name,count', got ',5'"),
    "duplicate-event": (load_sample, "cycles,10\nx,1\n\nx,2\n", ":4: duplicate event 'x'"),
    "duplicate-meta": (
        load_sample, "#meta width=4\ncycles,10\n#meta width=8\n",
        ":3: duplicate metadata key 'width'"),
    # a misspelt key would otherwise leave its default in force
    "unknown-meta": (
        load_sample, "\n#meta widht=8\n#meta cycles=100\n", ":2: unknown metadata key 'widht'"),
    "bad-count": (load_sample, "cycles,10\nx, ten \n", ":2: bad count 'ten'"),
    "bad-meta-value": (
        load_sample, "#meta width=abc\ncycles,10\n",
        ": bad metadata value: invalid literal for int() with base 10: 'abc'"),
    "mapping-without-comma": (
        load_mapping, "# abstract,platform\n\nuops_retired UOPS\n",
        ":3: expected 'abstract,platform', got 'uops_retired UOPS'"),
    "mapping-without-platform": (
        load_mapping, "cycles,CLK\nuops_retired,\n",
        ":2: expected 'abstract,platform', got 'uops_retired,'"),
    "mapping-without-abstract": (
        load_mapping, " , UOPS\n", ":1: expected 'abstract,platform', got ', UOPS'"),
    # a repeat would keep only the last line, or leave one name unmapped
    "mapping-repeated-abstract": (
        load_mapping, "instructions_retired,INST\n\ninstructions_retired,OTHER\n",
        ":3: duplicate abstract name 'instructions_retired'"),
    "mapping-repeated-platform": (
        load_mapping, "uops_retired,UOPS\ncycles,CLK\nuops_issued, UOPS\n",
        ":3: platform counter 'UOPS' mapped twice"),
}


@pytest.mark.parametrize("load, content, where_and_message", DUMP_ERRORS.values(),
                         ids=DUMP_ERRORS.keys())
def test_dump_error_text_is_pinned(tmp_path, load, content, where_and_message):
    path = tmp_path / "dump.csv"
    path.write_text(content)
    with pytest.raises(EventError) as err:
        load(str(path))
    assert str(err.value) == f"{path}{where_and_message}"


def test_apply_mapping_on_existing_sample():
    sample = parse_sample(
        "RAW.COUNTER,42\ncycles,100\n", mapping={"uops_retired": "RAW.COUNTER"}
    )
    assert sample.events["uops_retired"] == 42
    assert "RAW.COUNTER" not in sample.events


def test_collect_sample_runs_command(tmp_path, monkeypatch):
    # An inline, shell-quoted collector command is split and launched by
    # `run --counters cmd:`, and its stdout parsed as an event sample.
    monkeypatch.chdir(tmp_path)
    script = (
        "import sys; print('#meta width=4'); print('cycles,1000');"
        "print('uops_retired,900')"
    )
    report = tmp_path / "rep.json"
    code = main([
        "run", "--spec", shipped_spec_path("index"),
        "--counters", f'cmd:{sys.executable} -c "{script}"',
        "--duration", "0.5", "--report", str(report),
    ])
    assert code == 0
    sample = json.loads(report.read_text())["counters"]["repeats"][0]
    assert sample["width"] == 4 and sample["cycles"] == 1000
    assert sample["events"]["uops_retired"] == 900


# ---------------------------------------------------------------------------
# builtin tree shape


LEVEL1_NAMES = ("Retiring", "Bad_Speculation", "Frontend_Bound", "Backend_Bound")


def test_builtin_tree_level1_names():
    tree = builtin_tree()
    assert tuple(r.name for r in tree.roots) == LEVEL1_NAMES


def test_builtin_tree_structure_counts():
    tree = builtin_tree()
    by_name = {}

    def walk(node):
        by_name[node.name] = node
        for c in node.children:
            walk(c)

    for r in tree.roots:
        walk(r)
    assert {c.name for c in by_name["Frontend_Latency"].children} == {
        "ICache_Misses", "ITLB_Misses", "Branch_Resteers", "DSB_Switches", "LCP", "MS_Switches",
    }
    assert {c.name for c in by_name["Frontend_Bandwidth"].children} == {"MITE", "DSB", "LSD"}
    assert {c.name for c in by_name["Backend_Core"].children} == {"Divider", "Port_Utilization"}
    assert {c.name for c in by_name["Backend_Memory"].children} == {
        "L1_Bound", "L2_Bound", "L3_Bound", "DRAM_Bound", "Store_Bound",
    }
    assert {c.name for c in by_name["DRAM_Bound"].children} == {
        "Bandwidth", "Local_DRAM", "Remote_DRAM", "Remote_Cache",
    }
    assert by_name["L2_Bound"].negative_ok


def test_tree_json_roundtrip(tmp_path):
    tree = builtin_tree()
    doc = tree_to_json(tree)
    assert tree_from_json(doc) == tree
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    assert load_tree(str(path)) == tree


# SHA-256 of the built-in tree in its --tree JSON form, keys sorted: any
# change to a node's name, formula, flags or children moves it.
BUILTIN_TREE_SHA256 = "08e2bc6d342a2b17488219842cd41e9082feb9bb94a82cc67ec0dd580f67b564"


def test_builtin_tree_pinned_node_for_node():
    text = json.dumps(tree_to_json(builtin_tree()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_TREE_SHA256


def test_event_intent_documents_every_event_analyze_reads():
    scalar_events = set()
    for metric in (ipc, mlp, ms_uops_ratio):
        with pytest.raises(MissingEventsError) as info:
            metric(EventSample({}, cycles=1.0))
        scalar_events.update(info.value.names)
    assert scalar_events == {"instructions_retired", "l1d_miss_occupancy", "l1d_miss_cycles",
                             "ms_uops", "uops_retired"}
    assert set(topdown.EVENT_INTENT) == (builtin_tree().required_events() | {"cycles"}
                                         | scalar_events)


def test_tree_rejects_depth_over_five():
    node = MetricNode("n5", "1")
    for i in (4, 3, 2, 1, 0):
        node = MetricNode(f"n{i}", "1", children=(node,))
    with pytest.raises(EventError):
        MetricTree((node,))


def test_tree_rejects_duplicate_names():
    with pytest.raises(EventError):
        MetricTree((MetricNode("A", "1"), MetricNode("A", "2")))


def test_tree_parses_each_formula_once(monkeypatch):
    calls = []
    real = topdown.parse_formula

    def counting(formula):
        calls.append(formula)
        return real(formula)

    monkeypatch.setattr(topdown, "parse_formula", counting)
    builtin_tree.cache_clear()
    try:
        tree = builtin_tree()
        assert len(calls) == len(metric_names(tree)) == 32
        assert builtin_tree() is tree
        evaluate_tree(golden_sample(0.3), tree)
        evaluate_tree(ideal_sample(), tree)
        assert len(calls) == 32
    finally:
        builtin_tree.cache_clear()


@pytest.mark.parametrize("roots", [
    (MetricNode("A", "B + 1"), MetricNode("B", "1")),
    (MetricNode("A", "A"),),
    (MetricNode("A", "1", children=(MetricNode("C1", "C2"), MetricNode("C2", "1"))),),
    (MetricNode("A", "1", children=(MetricNode("C", "B"),)), MetricNode("B", "1")),
])
def test_tree_rejects_references_not_evaluated_before(roots):
    with pytest.raises(FormulaError) as err:
        MetricTree(roots)
    assert "is not evaluated before it" in str(err.value)


def test_tree_rejects_unknown_meta_name():
    with pytest.raises(FormulaError) as err:
        MetricTree((MetricNode("A", "x / meta.slots"),))
    assert "'A'" in str(err.value) or "A:" in str(err.value)
    assert "meta.slots" in str(err.value)


def test_tree_references_to_earlier_metrics_are_not_events():
    tree = MetricTree((
        MetricNode("A", "a / meta.cycles", children=(MetricNode("A1", "A / 2"),)),
        MetricNode("B", "A1 + A - b * meta.width"),
    ))
    assert tree.required_events() == {"a", "b"}
    assert metric_names(tree) == ["A", "A1", "B"]


@pytest.mark.parametrize("doc", [
    5, "tree", None, [],
    {"name": "A", "formula": "1", "children": None},
    [{"name": "A", "formula": "1", "children": 7}],
    {"name": 7, "formula": "1"},
    {"name": "A", "formula": 0.5},
    {"name": "A", "formula": "1", "negative_ok": "false"},
    {"name": "A", "formula": "1", "expected_fraction": 1},
    {"name": "A", "formula": "uops_retired / meta.cycles", "expected_fracton": False},
    {"name": "A", "formula": "1", "children": [{"name": "B", "formula": None}]},
])
def test_tree_from_json_rejects_bad_shapes(doc):
    with pytest.raises(EventError):
        tree_from_json(doc)


@pytest.mark.parametrize("text, error, message", [
    ("[]", EventError, "metric tree has no root"),
    ("5", EventError, "a tree is a node object or a list of them, got 5"),
    ('{"name": "A"}', EventError, "tree node needs 'name' and 'formula': {'name': 'A'}"),
    ('{"name": "A", "formula": "meta.x"}', FormulaError, "A: unknown metadata name 'meta.x'"),
    ('{"name": ', EventError, "bad tree JSON: Expecting value: line 1 column 10 (char 9)"),
    ('{"name": "A", "formula": "1", "negative_ok": 0}', EventError,
     "tree node 'A': 'negative_ok' must be a bool, got 0"),
    ('[{"name": "A", "formula": "1"}, {"name": "A", "formula": "1"}]', EventError,
     "duplicate metric name 'A'"),
    ("".join(f'{{"name": "n{i}", "formula": "1", "children": [' for i in range(5))
     + '{"name": "n5", "formula": "1"}' + "]}" * 5, EventError,
     "tree deeper than 5 levels at 'n5'"),
    ('[{"name": "A", "formula": "B"}, {"name": "B", "formula": "1"}]', FormulaError,
     "A: formula names 'B', which is not evaluated before it"),
    ('{"name": "A", "formula": "1", "expected_fracton": false}', EventError,
     "tree node 'A': unknown key 'expected_fracton'"),
    ('{"name": "A", "formula": "1", "children": [{"name": "B", "formula": "1", "kids": []}]}',
     EventError, "tree node 'B': unknown key 'kids'"),
], ids=["no-root", "number", "no-formula", "unknown-metadata", "bad-json", "field-type",
        "duplicate-name", "six-levels", "forward-reference", "unknown-key", "unknown-child-key"])
def test_load_tree_names_its_file_in_a_tree_error(tmp_path, text, error, message):
    path = tmp_path / "tree.json"
    path.write_text(text)
    with pytest.raises(error) as err:
        load_tree(str(path))
    assert type(err.value) is error and str(err.value) == f"{path}: {message}"


_DEEP_TREE = "".join(f'{{"name": "n{i}", "formula": "1", "children": [' for i in range(2000))


@pytest.mark.parametrize("text, needle", [
    (json.dumps([{"name": "A", "formula": "B"}, {"name": "B", "formula": "1"}]), "'B'"),
    (json.dumps({"name": "A", "formula": "1", "children": None}), "children"),
    ("[]", "no root"),
    ("5", "a tree is"),
    (_DEEP_TREE + "]}" * 2000, "bad tree JSON"),
    (json.dumps({"name": 7, "formula": 0.5, "negative_ok": "false"}), "tree node 7: 'name' must be a str"),
    (json.dumps({"name": "A", "formula": " + ".join(["a"] * 6000)}), "bad formula"),
    ('{"name": "A", "formula": "1", "n": ' + "1" * 5000 + "}", "bad tree JSON"),
], ids=["forward-reference", "children-null", "empty", "number", "nested-2000", "field-types",
        "6000-terms", "int-5000-digits"])
def test_analyze_bad_tree_file_exit_1(tmp_path, capsys, text, needle):
    tree = tmp_path / "tree.json"
    tree.write_text(text)
    dump = tmp_path / "d.csv"
    write_sample(ideal_sample(), str(dump))
    assert main(["analyze", "--events", str(dump), "--tree", str(tree)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and len(err) < 400


# ---------------------------------------------------------------------------
# evaluation


def test_level1_worked_example():
    events = {
        "uops_retired": 92,
        "uops_issued": 100,
        "recovery_cycles": 2,
        "frontend_undelivered_slots": 120,
    }
    sample = EventSample(events, width=4, cycles=100)
    root = evaluate_tree(sample, LEVEL1_TREE)
    values = {n.name: n.fraction for n in root.children}
    assert values["Retiring"] == pytest.approx(0.23, abs=1e-12)
    assert values["Bad_Speculation"] == pytest.approx(0.04, abs=1e-12)
    assert values["Frontend_Bound"] == pytest.approx(0.30, abs=1e-12)
    assert values["Backend_Bound"] == pytest.approx(0.43, abs=1e-12)


def test_ideal_pipeline_all_retiring():
    root = evaluate_tree(ideal_sample(), builtin_tree())
    values = {n.name: n.fraction for n in root.children}
    assert values["Retiring"] == 1.0
    assert values["Bad_Speculation"] == 0.0
    assert values["Frontend_Bound"] == 0.0
    assert values["Backend_Bound"] == 0.0


def test_golden_retiring_fractions_exact():
    for target in (0.229, 0.398):
        root = evaluate_tree(golden_sample(target), builtin_tree())
        assert find_node(root, "Retiring").fraction == target


def test_missing_events_all_named():
    sample = EventSample({"uops_retired": 10}, width=4, cycles=100)
    with pytest.raises(MissingEventsError) as err:
        evaluate_tree(sample, builtin_tree())
    assert "uops_issued" in err.value.names
    assert "dram_bandwidth_stall_cycles" in err.value.names


def test_zero_cycles_is_an_error():
    with pytest.raises(EventError):
        EventSample({"uops_retired": 1}, width=4, cycles=0)


def test_level1_closure_randomized():
    rng = random.Random(2024)
    tree = builtin_tree()
    for _ in range(300):
        sample = random_valid_sample(rng)
        root = evaluate_tree(sample, tree)
        total = sum(n.fraction for n in root.children)
        assert abs(total - 1.0) < 1e-9


def test_hierarchical_child_sums_randomized():
    rng = random.Random(99)
    tree = builtin_tree()

    def check(node):
        if node.children:
            child_sum = sum(c.fraction for c in node.children)
            assert child_sum <= node.fraction + 0.02 + 1e-12
            for c in node.children:
                check(c)

    for _ in range(200):
        root = evaluate_tree(random_valid_sample(rng), tree)
        for top in root.children:
            check(top)


def test_l2_negative_artifact_flagged():
    rng = random.Random(5)
    tree = builtin_tree()
    flagged = 0
    for _ in range(50):
        root = evaluate_tree(random_valid_sample(rng, force_erratum=True), tree)
        node = find_node(root, "L2_Bound")
        if node.fraction < 0:
            assert node.negative_artifact
            flagged += 1
    assert flagged > 0


def test_negative_without_flag_rejected():
    tree = MetricTree((MetricNode("X", "(a - b) / meta.cycles"),))
    sample = EventSample({"a": 0, "b": 50}, width=4, cycles=1000)
    with pytest.raises(EventError):
        evaluate_tree(sample, tree)


def test_fraction_out_of_range_rejected():
    tree = MetricTree((MetricNode("X", "a / meta.cycles"),))
    sample = EventSample({"a": 5000}, width=4, cycles=1000)
    with pytest.raises(EventError):
        evaluate_tree(sample, tree)


def test_child_sum_violation_rejected():
    tree = MetricTree(
        (
            MetricNode(
                "P", "a / meta.cycles",
                children=(MetricNode("C1", "b / meta.cycles"), MetricNode("C2", "b / meta.cycles")),
            ),
        )
    )
    sample = EventSample({"a": 100, "b": 90}, width=4, cycles=1000)
    with pytest.raises(EventError) as err:
        evaluate_tree(sample, tree)
    assert "children of P" in str(err.value)


def test_frontend_monotone_in_undelivered_slots():
    # All stall events zeroed; only the undelivered-slots event moves.
    tree = builtin_tree()
    width, cycles = 4, 10_000
    slots = width * cycles
    prev = -1.0
    for frac in (0.0, 0.05, 0.1, 0.25, 0.5, 0.7):
        events = zero_events()
        events["uops_retired"] = slots // 10
        events["uops_issued"] = slots // 10
        sample = EventSample(dict(events, frontend_undelivered_slots=int(frac * slots)),
                             width=width, cycles=cycles)
        value = find_node(evaluate_tree(sample, tree), "Frontend_Bound").fraction
        assert value >= prev
        prev = value


def test_evaluate_is_pure():
    rng = random.Random(8)
    sample = random_valid_sample(rng)
    tree = builtin_tree()
    a = evaluate_tree(sample, tree)
    b = evaluate_tree(sample, tree)
    assert a == b


# ---------------------------------------------------------------------------
# scalar metrics


def test_ipc_values():
    sample = EventSample({"instructions_retired": 2_000_000_000}, cycles=1_000_000_000)
    assert ipc(sample) == 2.0
    zero = EventSample({"instructions_retired": 0}, cycles=10)
    assert ipc(zero) == 0.0


def test_ipc_random_pairs_match_division():
    rng = random.Random(55)
    for _ in range(100):
        instr = rng.randint(0, 10**9)
        cycles = rng.randint(1, 10**9)
        sample = EventSample({"instructions_retired": instr}, cycles=cycles)
        assert ipc(sample) == instr / cycles


def test_mlp_values():
    sample = EventSample({"l1d_miss_occupancy": 400, "l1d_miss_cycles": 100}, cycles=1000)
    assert mlp(sample) == 4.0
    idle = EventSample({"l1d_miss_occupancy": 0, "l1d_miss_cycles": 0}, cycles=1000)
    assert mlp(idle) == 0.0


def test_mlp_random_pairs_match_division():
    rng = random.Random(56)
    for _ in range(100):
        occ = rng.randint(0, 10**6)
        cyc = rng.randint(1, 10**6)
        sample = EventSample({"l1d_miss_occupancy": occ, "l1d_miss_cycles": cyc}, cycles=10**6)
        assert mlp(sample) == occ / cyc


def test_ms_uops_ratio():
    sample = EventSample({"ms_uops": 50, "uops_retired": 500}, cycles=100)
    assert ms_uops_ratio(sample) == 0.1


# ---------------------------------------------------------------------------
# metric vectors


def test_vector_length_is_node_count_plus_two():
    tree = builtin_tree()
    rng = random.Random(3)
    sample = random_valid_sample(rng)
    root = evaluate_tree(sample, tree)
    vec = to_metric_vector(root, {"ipc": ipc(sample), "mlp": mlp(sample)}, "w")
    assert len(vec.names) == len(metric_names(tree)) + 2
    assert vec.names[-2:] == ("ipc", "mlp")


def test_vector_ordering_is_stable_across_samples():
    tree = builtin_tree()
    rng = random.Random(4)
    a = random_valid_sample(rng)
    b = random_valid_sample(rng)
    va = to_metric_vector(evaluate_tree(a, tree), {"ipc": ipc(a), "mlp": mlp(a)}, "a")
    vb = to_metric_vector(evaluate_tree(b, tree), {"ipc": ipc(b), "mlp": mlp(b)}, "b")
    assert va.names == vb.names


def test_vector_preorder_on_toy_tree():
    tree = MetricTree(
        (
            MetricNode(
                "A", "a / meta.cycles",
                children=(MetricNode("B", "b / meta.cycles"), MetricNode("C", "c / meta.cycles")),
            ),
        )
    )
    sample = EventSample({"a": 100, "b": 60, "c": 40}, width=4, cycles=1000)
    vec = to_metric_vector(evaluate_tree(sample, tree), {"ipc": 1.0, "mlp": 2.0}, "toy")
    assert vec.names == ("A", "B", "C", "ipc", "mlp")
    assert vec.values == (0.1, 0.06, 0.04, 1.0, 2.0)


def test_vector_extras_appended():
    sample = golden_sample(0.3)
    root = evaluate_tree(sample, builtin_tree())
    vec = to_metric_vector(root, {"ipc": 1.0, "mlp": 0.0, "ms_uops_ratio": 0.25}, "g")
    assert vec.names[-1] == "ms_uops_ratio" and vec.values[-1] == 0.25


def test_validate_time_aggregate_target_requirement():
    from motifbench.kernels import get_kernel
    from motifbench.errors import KernelError as KE

    spec = get_kernel("statistic.aggregate")
    with pytest.raises(KE):
        spec.coerce_params({"group": "g", "agg": "sum"})
    spec.coerce_params({"group": "g", "agg": "count"})  # fine without target


def test_metric_vector_rejects_non_finite():
    with pytest.raises(EventError):
        from motifbench.topdown import MetricVector

        MetricVector("w", ("a",), (math.inf,))


def test_meta_cycles_overrides_event_row():
    sample = parse_sample("#meta cycles=100\ncycles,200\nuops_retired,10\n")
    assert sample.cycles == 100
    assert sample.events["cycles"] == 100


# ---------------------------------------------------------------------------
# the analyze document's text

# Names and labels: any code point, with JSON's escapes and astral characters
# drawn often.
json_text = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\té 😀'),
                    max_size=8)
# Every float json.dumps writes, non-finite included, and the integer counts
# a formula over integer events returns.
json_number = (st.floats() | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308])
               | st.integers(-2**70, 2**70))


def breakdown_node(children=st.just(())):
    return st.builds(BreakdownNode, json_text, json_number, st.booleans(), children)


breakdown_trees = st.recursive(
    breakdown_node(),
    lambda kids: breakdown_node(st.lists(kids, max_size=4).map(tuple)),
    max_leaves=25,
)


@st.composite
def chains(draw):
    """A tree one node wide and up to 40 deep."""
    node = draw(breakdown_node())
    for _ in range(draw(st.integers(1, 40))):
        node = draw(breakdown_node(st.just((node,))))
    return node


@st.composite
def analysis_docs(draw, trees=breakdown_trees | chains()):
    doc = {"label": draw(json_text), "width": draw(st.integers(1, 64)),
           "cycles": draw(json_number), "breakdown": draw(trees),
           "ipc": draw(json_number), "mlp": draw(json_number)}
    if draw(st.booleans()):
        doc["ms_uops_ratio"] = draw(json_number)
    return doc


def indent2_text(doc: dict) -> str:
    """What analyze -o wrote before it wrote from the tree: the document
    with its breakdown as breakdown_to_json's dict, through json.dumps."""
    doc = {**doc, "breakdown": breakdown_to_json(doc["breakdown"])}
    return json.dumps(doc, indent=2) + "\n"


def small_doc(tree):
    return {"label": "ü\U0001f600", "width": 4, "cycles": 1000.0, "breakdown": tree,
            "ipc": 1.5, "mlp": 0.0}


@settings(max_examples=150, deadline=None)
@given(doc=analysis_docs())
@example(doc=small_doc(BreakdownNode("leaf", 0.25)))
@example(doc=small_doc(BreakdownNode("neg", -0.0, True, (BreakdownNode("", 5e-324),
                                                         BreakdownNode("\"\\", -1e-300)))))
def test_analysis_json_is_json_dumps_indent2(doc):
    assert topdown.analysis_json(doc) == indent2_text(doc)


def test_analysis_json_of_evaluated_samples():
    rng = random.Random(41)
    tree = builtin_tree()
    for i in range(64):
        sample = random_valid_sample(rng)
        doc = {"label": f"w{i}", "width": sample.width, "cycles": sample.cycles,
               "breakdown": evaluate_tree(sample, tree), "ipc": ipc(sample),
               "mlp": mlp(sample), "ms_uops_ratio": ms_uops_ratio(sample)}
        assert topdown.analysis_json(doc) == indent2_text(doc)
