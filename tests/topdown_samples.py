"""Constructors for event samples used across the analyzer tests, writers
of event dumps and tree files, and lookups into metric trees and breakdowns.

random_valid_sample builds integer event counts top-down from slot budgets so
every hierarchy constraint (level-1 closure, child sums, fraction ranges)
holds by construction; golden_sample pins the level-1 Retiring fraction to a
chosen value exactly.
"""

from __future__ import annotations

import random

from motifbench.dataio import open_output
from motifbench.topdown import EventSample, MetricNode, MetricTree, _preorder

ALL_EVENTS = (
    "instructions_retired",
    "uops_retired",
    "uops_issued",
    "recovery_cycles",
    "frontend_undelivered_slots",
    "ms_uops",
    "machine_clear_recovery_cycles",
    "frontend_zero_delivery_cycles",
    "icache_miss_stall_cycles",
    "itlb_miss_stall_cycles",
    "branch_resteer_stall_cycles",
    "dsb_switch_stall_cycles",
    "lcp_stall_cycles",
    "ms_switch_stall_cycles",
    "mite_stall_cycles",
    "dsb_stall_cycles",
    "lsd_stall_cycles",
    "memory_stall_cycles",
    "store_buffer_stall_cycles",
    "l1d_pending_stall_cycles",
    "l2_pending_stall_cycles",
    "dram_pending_stall_cycles",
    "divider_active_cycles",
    "port_underutilized_cycles",
    "dram_bandwidth_stall_cycles",
    "local_dram_stall_cycles",
    "remote_dram_stall_cycles",
    "remote_cache_stall_cycles",
    "l1d_miss_occupancy",
    "l1d_miss_cycles",
)


def zero_events() -> dict[str, float]:
    return {name: 0 for name in ALL_EVENTS}


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """parts non-negative integers summing to at most total."""
    if total <= 0:
        return [0] * parts
    budget = rng.randint(0, total)
    cuts = sorted(rng.randint(0, budget) for _ in range(parts - 1))
    edges = [0, *cuts, budget]
    return [edges[i + 1] - edges[i] for i in range(parts)]


def random_valid_sample(rng: random.Random, force_erratum: bool | None = None) -> EventSample:
    width = rng.choice((2, 4, 8))
    cycles = rng.randint(10_000, 1_000_000)
    slots = width * cycles

    cut = sorted(rng.randint(0, slots) for _ in range(3))
    retiring_slots = cut[0]
    badspec_slots = cut[1] - cut[0]
    frontend_slots = cut[2] - cut[1]
    backend_slots = slots - cut[2]

    events = zero_events()
    events["uops_retired"] = retiring_slots
    events["ms_uops"] = rng.randint(0, retiring_slots)

    recovery = rng.randint(0, badspec_slots // width)
    events["recovery_cycles"] = recovery
    events["uops_issued"] = retiring_slots + (badspec_slots - width * recovery)
    events["machine_clear_recovery_cycles"] = rng.randint(0, badspec_slots // width)

    events["frontend_undelivered_slots"] = frontend_slots
    fl_cycles = rng.randint(0, frontend_slots // width)
    events["frontend_zero_delivery_cycles"] = fl_cycles
    causes = _split(rng, fl_cycles, 6)
    for name, value in zip(
        (
            "icache_miss_stall_cycles",
            "itlb_miss_stall_cycles",
            "branch_resteer_stall_cycles",
            "dsb_switch_stall_cycles",
            "lcp_stall_cycles",
            "ms_switch_stall_cycles",
        ),
        causes,
    ):
        events[name] = value
    bw_budget = frontend_slots // width - fl_cycles
    for name, value in zip(
        ("mite_stall_cycles", "dsb_stall_cycles", "lsd_stall_cycles"),
        _split(rng, bw_budget, 3),
    ):
        events[name] = value

    be_budget = backend_slots // width
    mem = rng.randint(0, be_budget)
    store = rng.randint(0, be_budget - mem)
    events["memory_stall_cycles"] = mem
    events["store_buffer_stall_cycles"] = store
    core_budget = be_budget - mem - store
    divider, port = _split(rng, core_budget, 2)
    events["divider_active_cycles"] = divider
    events["port_underutilized_cycles"] = port

    l1d = rng.randint(0, mem)
    erratum = rng.random() < 0.25 if force_erratum is None else force_erratum
    if erratum and cycles >= 100:
        l2 = l1d + rng.randint(1, max(1, cycles // 100))  # pushes L2_Bound below zero
    else:
        l2 = rng.randint(0, l1d)
    dram = rng.randint(0, min(l2, l1d))
    events["l1d_pending_stall_cycles"] = l1d
    events["l2_pending_stall_cycles"] = l2
    events["dram_pending_stall_cycles"] = dram
    for name, value in zip(
        (
            "dram_bandwidth_stall_cycles",
            "local_dram_stall_cycles",
            "remote_dram_stall_cycles",
            "remote_cache_stall_cycles",
        ),
        _split(rng, dram, 4),
    ):
        events[name] = value

    events["instructions_retired"] = rng.randint(1, slots)
    miss_cycles = rng.randint(0, cycles)
    events["l1d_miss_cycles"] = miss_cycles
    events["l1d_miss_occupancy"] = miss_cycles * rng.randint(1, 16)

    return EventSample(events=events, width=width, cycles=cycles,
                       label=f"rand{rng.randint(0, 1 << 30)}")


def golden_sample(retiring: float, width: int = 4, cycles: int = 1000,
                  label: str = "golden") -> EventSample:
    """Sample whose Retiring fraction is exactly uops_retired/slots for the
    requested value; every other category left in the backend residual."""
    slots = width * cycles
    retired = round(retiring * slots)
    events = zero_events()
    events["uops_retired"] = retired
    events["uops_issued"] = retired
    events["instructions_retired"] = retired
    return EventSample(events=events, width=width, cycles=cycles, label=label)


def ideal_sample(width: int = 4, cycles: int = 1000) -> EventSample:
    """All slots retire: Retiring 1.0, everything else 0."""
    slots = width * cycles
    events = zero_events()
    events["uops_retired"] = slots
    events["uops_issued"] = slots
    events["instructions_retired"] = slots
    events["ms_uops"] = 0
    return EventSample(events=events, width=width, cycles=cycles, label="ideal")


def write_sample(sample: EventSample, path: str):
    """Write an event dump that load_sample reads back as sample."""
    with open_output(path) as fh:
        fh.write(f"#meta width={sample.width}\n")
        fh.write(f"#meta cycles={sample.cycles:g}\n")
        if sample.label:
            fh.write(f"#meta label={sample.label}\n")
        for name in sorted(sample.events):
            if name == "cycles":
                continue
            fh.write(f"{name},{sample.events[name]:g}\n")


def _node_to_json(node: MetricNode) -> dict:
    return {
        "name": node.name,
        "formula": node.formula,
        "expected_fraction": node.expected_fraction,
        "negative_ok": node.negative_ok,
        "children": [_node_to_json(c) for c in node.children],
    }


def tree_to_json(tree: MetricTree) -> list[dict]:
    """A tree in the JSON form tree_from_json and --tree files take."""
    return [_node_to_json(r) for r in tree.roots]


def metric_names(tree) -> list[str]:
    """A metric tree's node names in evaluation (pre-)order."""
    return [node.name for node, _ in _preorder(tree.roots)]


def find_node(root, name: str):
    """The breakdown node called `name` under `root`, or None."""
    return next((node for node, _ in _preorder((root,)) if node.name == name), None)
