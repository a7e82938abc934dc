import json
import math
import random
import sys

import pytest

import motifbench
from motifbench.cli import main
from motifbench.errors import EventError, FormulaError, MissingEventsError
from motifbench.topdown import (
    EventSample,
    LEVEL1_NAMES,
    MetricNode,
    MetricTree,
    average_samples,
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
    tree_to_json,
    write_sample,
)

from .topdown_samples import golden_sample, ideal_sample, random_valid_sample, zero_events

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
    for bad in ("1 +", "(a", "a b", "2 ** 3", ""):
        with pytest.raises(FormulaError):
            parse_formula(bad)


# ---------------------------------------------------------------------------
# samples


def test_parse_sample_cycles_event_line():
    sample = parse_sample("cycles,1000\nuops_retired,500\n")
    assert sample.cycles == 1000
    assert sample.events["uops_retired"] == 500


def test_parse_sample_meta_lines():
    sample = parse_sample("#meta width=8\n#meta cycles=400\n#meta label=run1\nuops_retired,3\n")
    assert sample.width == 8 and sample.cycles == 400 and sample.label == "run1"


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
        "run", "--spec", motifbench.shipped_spec_path("index"),
        "--counters", f'cmd:{sys.executable} -c "{script}"',
        "--duration", "0.5", "--report", str(report),
    ])
    assert code == 0
    sample = json.loads(report.read_text())["counters"]["repeats"][0]
    assert sample["width"] == 4 and sample["cycles"] == 1000
    assert sample["events"]["uops_retired"] == 900


# ---------------------------------------------------------------------------
# builtin tree shape


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


def test_tree_rejects_depth_over_five():
    node = MetricNode("n5", "1")
    for i in (4, 3, 2, 1, 0):
        node = MetricNode(f"n{i}", "1", children=(node,))
    with pytest.raises(EventError):
        MetricTree((node,))


def test_tree_rejects_duplicate_names():
    with pytest.raises(EventError):
        MetricTree((MetricNode("A", "1"), MetricNode("A", "2")))


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
        assert root.find("Retiring").fraction == target


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
        node = root.find("L2_Bound")
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
        value = evaluate_tree(sample, tree).find("Frontend_Bound").fraction
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
    vec = to_metric_vector(root, ipc(sample), mlp(sample), "w")
    assert len(vec.names) == tree.node_count() + 2
    assert vec.names[-2:] == ("ipc", "mlp")


def test_vector_ordering_is_stable_across_samples():
    tree = builtin_tree()
    rng = random.Random(4)
    a = random_valid_sample(rng)
    b = random_valid_sample(rng)
    va = to_metric_vector(evaluate_tree(a, tree), ipc(a), mlp(a), "a")
    vb = to_metric_vector(evaluate_tree(b, tree), ipc(b), mlp(b), "b")
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
    vec = to_metric_vector(evaluate_tree(sample, tree), 1.0, 2.0, "toy")
    assert vec.names == ("A", "B", "C", "ipc", "mlp")
    assert vec.values == (0.1, 0.06, 0.04, 1.0, 2.0)


def test_vector_extras_appended():
    sample = golden_sample(0.3)
    root = evaluate_tree(sample, builtin_tree())
    vec = to_metric_vector(root, 1.0, 0.0, "g", extras=(("ms_uops_ratio", 0.25),))
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
