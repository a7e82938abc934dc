"""Seeded synthetic hardware-event dumps for the `characterize` workload.

The sandbox the benchmark targets has no hardware counters, so the analysis
path is fed event dumps built here. Each profile belongs to one of a few
archetypes (compute-, memory-, speculation- and frontend-bound). Counts are
built top-down from integer slot budgets, so every constraint of the built-in
bottleneck tree holds by construction and the level-1 fractions are known
exactly. Every metric the tree produces is a fixed per-archetype share plus a
few percent of seeded jitter, so profiles of one archetype sit far closer to
each other than to any other archetype and the expected clustering is the
archetype membership.
"""

from __future__ import annotations

import random

WIDTH = 4

# level-1 fractions (Retiring, Bad_Speculation, Frontend_Bound, Backend_Bound)
# and the shares that split each category further down the tree.
ARCHETYPES = {
    "compute": dict(
        level1=(0.62, 0.06, 0.12, 0.20), ms=0.02, recovery=0.5, clears=0.1, latency=0.5,
        fl_causes=(4, 1, 2, 1, 1, 1), fb_causes=(2, 5, 1), memory=0.2, store=0.05,
        divider=0.3, l1=0.3, l2=0.5, dram=0.3, dram_causes=(1, 4, 1, 1),
        ipc=0.9, misses=0.2, mlp=1.5,
    ),
    "memory": dict(
        level1=(0.18, 0.04, 0.10, 0.68), ms=0.01, recovery=0.5, clears=0.3, latency=0.3,
        fl_causes=(1, 1, 1, 1, 1, 1), fb_causes=(1, 1, 1), memory=0.8, store=0.1,
        divider=0.2, l1=0.8, l2=0.8, dram=0.7, dram_causes=(5, 3, 1, 1),
        ipc=0.7, misses=0.6, mlp=6.0,
    ),
    "speculation": dict(
        level1=(0.30, 0.32, 0.18, 0.20), ms=0.03, recovery=0.6, clears=0.1, latency=0.4,
        fl_causes=(1, 1, 6, 1, 1, 1), fb_causes=(3, 1, 1), memory=0.3, store=0.05,
        divider=0.5, l1=0.4, l2=0.3, dram=0.2, dram_causes=(1, 1, 1, 1),
        ipc=0.8, misses=0.25, mlp=2.0,
    ),
    "frontend": dict(
        level1=(0.24, 0.08, 0.48, 0.20), ms=0.15, recovery=0.4, clears=0.2, latency=0.8,
        fl_causes=(6, 3, 1, 2, 1, 2), fb_causes=(5, 1, 1), memory=0.3, store=0.05,
        divider=0.4, l1=0.5, l2=0.6, dram=0.4, dram_causes=(1, 2, 1, 1),
        ipc=0.6, misses=0.3, mlp=1.2,
    ),
}

LEVEL1 = ("Retiring", "Bad_Speculation", "Frontend_Bound", "Backend_Bound")

_FL_EVENTS = (
    "icache_miss_stall_cycles", "itlb_miss_stall_cycles", "branch_resteer_stall_cycles",
    "dsb_switch_stall_cycles", "lcp_stall_cycles", "ms_switch_stall_cycles",
)
_FB_EVENTS = ("mite_stall_cycles", "dsb_stall_cycles", "lsd_stall_cycles")
_DRAM_EVENTS = (
    "dram_bandwidth_stall_cycles", "local_dram_stall_cycles",
    "remote_dram_stall_cycles", "remote_cache_stall_cycles",
)


def _split(total: int, weights, rng: random.Random, jitter: float) -> list[int]:
    """Integers summing to at most `total`, roughly proportional to weights."""
    w = [x * (1.0 + rng.uniform(-jitter, jitter)) for x in weights]
    scale = sum(w)
    return [int(total * x / scale) for x in w]


def profile(archetype: str, rng: random.Random, jitter: float = 0.03):
    """One event sample as (width, cycles, events) with integer counts."""
    a = ARCHETYPES[archetype]

    def share(key: str) -> float:
        return min(0.98, a[key] * (1.0 + rng.uniform(-jitter, jitter)))

    cycles = 1_000_000 + rng.randrange(100_000)
    slots = WIDTH * cycles
    fr = [max(0.01, f + rng.uniform(-jitter / 2, jitter / 2)) for f in a["level1"][:3]]
    retiring, badspec, frontend = (int(f * slots) for f in fr)
    backend = slots - retiring - badspec - frontend

    e: dict[str, int] = {}
    e["uops_retired"] = retiring
    e["ms_uops"] = int(retiring * share("ms"))
    recovery = int(badspec / WIDTH * share("recovery"))
    e["recovery_cycles"] = recovery
    e["uops_issued"] = retiring + badspec - WIDTH * recovery
    e["machine_clear_recovery_cycles"] = int(recovery * share("clears"))

    e["frontend_undelivered_slots"] = frontend
    latency = int(frontend / WIDTH * share("latency"))
    e["frontend_zero_delivery_cycles"] = latency
    e.update(zip(_FL_EVENTS, _split(latency, a["fl_causes"], rng, jitter)))
    e.update(zip(_FB_EVENTS, _split(frontend // WIDTH - latency, a["fb_causes"], rng, jitter)))

    be_cycles = backend // WIDTH
    memory = int(be_cycles * share("memory"))
    store = int((be_cycles - memory) * share("store"))
    e["memory_stall_cycles"] = memory
    e["store_buffer_stall_cycles"] = store
    core = be_cycles - memory - store
    e["divider_active_cycles"] = int(core * share("divider"))
    e["port_underutilized_cycles"] = core - e["divider_active_cycles"]
    l1d = int(memory * share("l1"))
    l2 = int(l1d * share("l2"))
    dram = int(l2 * share("dram"))
    e["l1d_pending_stall_cycles"] = l1d
    e["l2_pending_stall_cycles"] = l2
    e["dram_pending_stall_cycles"] = dram
    e.update(zip(_DRAM_EVENTS, _split(dram, a["dram_causes"], rng, jitter)))

    e["instructions_retired"] = int(retiring * share("ipc"))
    miss_cycles = int(cycles * share("misses"))
    e["l1d_miss_cycles"] = miss_cycles
    e["l1d_miss_occupancy"] = int(miss_cycles * a["mlp"] * (1.0 + rng.uniform(-jitter, jitter)))
    return WIDTH, cycles, e


def level1_fractions(width: int, cycles: int, e: dict[str, int]) -> dict[str, float]:
    """The level-1 breakdown, computed directly from the counts."""
    slots = width * cycles
    retiring = e["uops_retired"] / slots
    badspec = (e["uops_issued"] - e["uops_retired"] + width * e["recovery_cycles"]) / slots
    frontend = e["frontend_undelivered_slots"] / slots
    return dict(zip(LEVEL1, (retiring, badspec, frontend, 1 - retiring - badspec - frontend)))


def write_dump(path: str, label: str, width: int, cycles: int, e: dict[str, int]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#meta width={width}\n#meta cycles={cycles}\n#meta label={label}\n")
        for name in sorted(e):
            fh.write(f"{name},{e[name]}\n")


def first_leaf_order(groups: list[str]) -> list[int]:
    """Cluster ids numbered in order of first appearance, as a dendrogram cut
    numbers them."""
    ids: dict[str, int] = {}
    return [ids.setdefault(g, len(ids)) for g in groups]
