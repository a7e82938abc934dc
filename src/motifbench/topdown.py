"""Hierarchical pipeline-bottleneck model over hardware-event counts.

Every issue slot (issue_width per cycle) is classified at the top level into
four fractions that sum to one:

    Retiring        = uops_retired / slots
    Bad_Speculation = (uops_issued - uops_retired + width * recovery_cycles) / slots
    Frontend_Bound  = frontend_undelivered_slots / slots
    Backend_Bound   = residual (1 - the other three)

with slots = meta.width * meta.cycles. Lower levels attribute each category to
causes, drilling down to DRAM behavior:

    Retiring            -> Base | Microcode_Sequencer
    Bad_Speculation     -> Branch_Mispredicts | Machine_Clears
    Frontend_Bound      -> Frontend_Latency | Frontend_Bandwidth
      Frontend_Latency    -> ICache_Misses ITLB_Misses Branch_Resteers
                             DSB_Switches LCP MS_Switches
      Frontend_Bandwidth  -> MITE DSB LSD
    Backend_Bound       -> Backend_Core | Backend_Memory
      Backend_Core        -> Divider Port_Utilization
      Backend_Memory      -> L1_Bound L2_Bound L3_Bound DRAM_Bound Store_Bound
        DRAM_Bound          -> Bandwidth Local_DRAM Remote_DRAM Remote_Cache

Event names are abstract and platform-neutral; a mapping file (CSV lines
'abstract_name,platform_name') translates a sample collected with native
counter names. Each abstract event's meaning is documented in EVENT_INTENT.

L2_Bound is computed as a difference of pending-stall counters and is allowed
to go negative (counter errata on some parts over-count the subtrahend); such
nodes carry the negative_artifact flag instead of failing validation.

Companion scalar metrics: ipc (retired instructions per cycle), mlp (mean
outstanding data-cache misses over the cycles that have at least one), and
ms_uops_ratio (microcode-sequencer uops per retired uop).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

from .errors import EventError, FormulaError, MissingEventsError

DEFAULT_ISSUE_WIDTH = 4

# Child fractions may exceed their parent slightly when counters are
# multiplexed; this is the accepted inconsistency budget.
CHILD_SUM_TOLERANCE = 0.02

FRACTION_LO = -0.05
FRACTION_HI = 1.05

EVENT_INTENT = {
    "cycles": "core clock cycles (also available to formulas as meta.cycles)",
    "instructions_retired": "architecturally retired instructions",
    "uops_retired": "retired micro-operations",
    "uops_issued": "micro-operations issued to the backend, speculative included",
    "recovery_cycles": "cycles the issue stage is stalled recovering from misspeculation",
    "frontend_undelivered_slots": "issue slots with no uop delivered by the frontend",
    "ms_uops": "uops delivered by the microcode sequencer",
    "machine_clear_recovery_cycles": "recovery cycles attributable to machine clears",
    "frontend_zero_delivery_cycles": "cycles in which the frontend delivered no uops at all",
    "icache_miss_stall_cycles": "fetch stall cycles caused by instruction-cache misses",
    "itlb_miss_stall_cycles": "fetch stall cycles caused by instruction-TLB misses",
    "branch_resteer_stall_cycles": "fetch stall cycles while refetching after a resteer",
    "dsb_switch_stall_cycles": "stall cycles switching from the decoded-uop cache to legacy decode",
    "lcp_stall_cycles": "stall cycles decoding length-changing prefixes",
    "ms_switch_stall_cycles": "stall cycles switching uop delivery to the microcode sequencer",
    "mite_stall_cycles": "cycles the legacy decode pipeline delivered fewer uops than the width",
    "dsb_stall_cycles": "cycles the decoded-uop cache delivered fewer uops than the width",
    "lsd_stall_cycles": "cycles the loop stream detector delivered fewer uops than the width",
    "memory_stall_cycles": "execution stall cycles with a demand load pending",
    "store_buffer_stall_cycles": "stall cycles with the store buffer full",
    "l1d_pending_stall_cycles": "execution stall cycles with an L1D miss outstanding",
    "l2_pending_stall_cycles": "execution stall cycles with an L2 miss outstanding",
    "dram_pending_stall_cycles": "execution stall cycles with a DRAM access outstanding",
    "divider_active_cycles": "cycles the divide unit is busy",
    "port_underutilized_cycles": "stall cycles with execution ports underutilized",
    "dram_bandwidth_stall_cycles": "stall cycles at saturated memory bandwidth occupancy",
    "local_dram_stall_cycles": "stall cycles waiting on loads from local DRAM",
    "remote_dram_stall_cycles": "stall cycles waiting on loads from a remote socket's DRAM",
    "remote_cache_stall_cycles": "stall cycles waiting on loads from a remote socket's cache",
    "l1d_miss_occupancy": "sum over cycles of outstanding L1D misses",
    "l1d_miss_cycles": "cycles with at least one outstanding L1D miss",
}


# ---------------------------------------------------------------------------
# formula language: + - * / ( ), numbers, event/metric identifiers, meta.*


def _tokenize(formula: str):
    tokens = []
    i, n = 0, len(formula)
    while i < n:
        ch = formula[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/()":
            tokens.append((ch, ch))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (formula[j].isdigit() or formula[j] in ".eE" or
                             (formula[j] in "+-" and formula[j - 1] in "eE")):
                j += 1
            try:
                value = float(formula[i:j])
            except ValueError:
                raise FormulaError(f"bad number {formula[i:j]!r} in {formula!r}") from None
            tokens.append(("num", value))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (formula[j].isalnum() or formula[j] in "_."):
                j += 1
            tokens.append(("name", formula[i:j]))
            i = j
        else:
            raise FormulaError(f"unexpected character {ch!r} in {formula!r}")
    return tokens


class _Parser:
    def __init__(self, formula: str):
        self.formula = formula
        self.tokens = _tokenize(formula)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        node = self._expr()
        if self.pos != len(self.tokens):
            raise FormulaError(f"trailing input in formula {self.formula!r}")
        return node

    def _expr(self):
        node = self._term()
        while self._peek() in ("+", "-"):
            op, _ = self._next()
            node = (op, node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while self._peek() in ("*", "/"):
            op, _ = self._next()
            node = (op, node, self._factor())
        return node

    def _factor(self):
        kind = self._peek()
        if kind is None:
            raise FormulaError(f"formula {self.formula!r} ends unexpectedly")
        if kind == "(":
            self._next()
            node = self._expr()
            if self._peek() != ")":
                raise FormulaError(f"missing ')' in {self.formula!r}")
            self._next()
            return node
        if kind == "-":
            self._next()
            return ("neg", self._factor())
        if kind == "num":
            return ("num", self._next()[1])
        if kind == "name":
            return ("name", self._next()[1])
        raise FormulaError(f"unexpected {kind!r} in {self.formula!r}")


def parse_formula(formula: str):
    return _Parser(formula).parse()


def formula_names(ast) -> set[str]:
    kind = ast[0]
    if kind == "name":
        return {ast[1]}
    if kind == "num":
        return set()
    if kind == "neg":
        return formula_names(ast[1])
    return formula_names(ast[1]) | formula_names(ast[2])


def eval_formula(ast, env: dict, where: str) -> float:
    kind = ast[0]
    if kind == "num":
        return ast[1]
    if kind == "name":
        try:
            return env[ast[1]]
        except KeyError:
            raise MissingEventsError([ast[1]]) from None
    if kind == "neg":
        return -eval_formula(ast[1], env, where)
    left = eval_formula(ast[1], env, where)
    right = eval_formula(ast[2], env, where)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left * right
    if right == 0.0:
        raise FormulaError(f"{where}: division by zero")
    return left / right


# ---------------------------------------------------------------------------
# event samples


@dataclass
class EventSample:
    """Named event counts plus collection metadata."""

    events: dict[str, float]
    width: int = DEFAULT_ISSUE_WIDTH
    cycles: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.width < 1:
            raise EventError(f"issue width must be >= 1, got {self.width}")
        if not self.cycles > 0:
            raise EventError(f"cycles must be present and > 0, got {self.cycles}")
        for name, count in self.events.items():
            if not math.isfinite(count):
                raise EventError(f"event {name!r} has non-finite count {count!r}")
            if count < 0:
                raise EventError(f"event {name!r} has negative count {count}")


def parse_sample(text: str, path: str = "<sample>",
                 width: Optional[int] = None, label: Optional[str] = None,
                 mapping: Optional[dict[str, str]] = None) -> EventSample:
    """Parse an event dump: CSV lines 'event_name,count', metadata lines
    '#meta key=value' (keys width, cycles, label). A 'cycles' event row also
    sets the cycle count. Duplicate event names are an error. A mapping of
    abstract to platform counter names is applied before validation so a
    platform-named cycles counter still satisfies the cycles requirement."""
    events: dict[str, float] = {}
    meta: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#meta"):
            body = line[len("#meta"):].strip()
            if "=" not in body:
                raise EventError(f"{path}:{lineno}: bad metadata line {line!r}")
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
            continue
        if line.startswith("#"):
            continue
        if "," not in line:
            raise EventError(f"{path}:{lineno}: expected 'event_name,count', got {line!r}")
        name, _, count_text = line.partition(",")
        name = name.strip()
        if name in events:
            raise EventError(f"{path}:{lineno}: duplicate event {name!r}")
        try:
            count = float(count_text.strip())
        except ValueError:
            raise EventError(f"{path}:{lineno}: bad count {count_text.strip()!r}") from None
        events[name] = count

    if mapping:
        for abstract, platform in mapping.items():
            if platform in events and abstract not in events:
                events[abstract] = events.pop(platform)
    cycles = events.get("cycles", 0.0)
    if "cycles" in meta:
        # explicit metadata beats a counter row; keep the two views consistent
        cycles = float(meta["cycles"])
        events["cycles"] = cycles
    if width is None:
        width = int(meta.get("width", DEFAULT_ISSUE_WIDTH))
    if label is None:
        label = meta.get("label", os.path.splitext(os.path.basename(path))[0])
    return EventSample(events=events, width=width, cycles=cycles, label=label)


def load_sample(path: str, width: Optional[int] = None,
                mapping: Optional[dict[str, str]] = None) -> EventSample:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sample(fh.read(), path=path, width=width, mapping=mapping)


def write_sample(sample: EventSample, path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"#meta width={sample.width}\n")
        fh.write(f"#meta cycles={sample.cycles:g}\n")
        if sample.label:
            fh.write(f"#meta label={sample.label}\n")
        for name in sorted(sample.events):
            if name == "cycles":
                continue
            fh.write(f"{name},{sample.events[name]:g}\n")


def load_mapping(path: str) -> dict[str, str]:
    """Event mapping CSV: 'abstract_name,platform_name' per line."""
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "," not in line:
                raise EventError(f"{path}:{lineno}: expected 'abstract,platform', got {line!r}")
            abstract, _, platform = line.partition(",")
            mapping[abstract.strip()] = platform.strip()
    return mapping


def average_samples(samples: list[EventSample]) -> EventSample:
    """Arithmetic mean of event counts across runs of the same workload."""
    if not samples:
        raise EventError("no samples to average")
    if len(samples) == 1:
        return samples[0]
    names = set(samples[0].events)
    for s in samples[1:]:
        if set(s.events) != names:
            missing = names.symmetric_difference(s.events)
            raise EventError(f"samples disagree on events: {', '.join(sorted(missing))}")
        if s.width != samples[0].width:
            raise EventError("samples disagree on issue width")
    n = len(samples)
    events = {name: sum(s.events[name] for s in samples) / n for name in names}
    cycles = sum(s.cycles for s in samples) / n
    events["cycles"] = cycles
    label = samples[0].label
    return EventSample(events=events, width=samples[0].width, cycles=cycles,
                       label=f"avg({label})" if label else "avg")


# ---------------------------------------------------------------------------
# metric trees


@dataclass(frozen=True)
class MetricNode:
    name: str
    formula: str
    expected_fraction: bool = True
    negative_ok: bool = False
    children: tuple["MetricNode", ...] = ()


@dataclass(frozen=True)
class MetricTree:
    roots: tuple[MetricNode, ...]

    def __post_init__(self):
        seen: set[str] = set()

        def walk(node: MetricNode, depth: int):
            if depth > 5:
                raise EventError(f"tree deeper than 5 levels at {node.name!r}")
            if node.name in seen:
                raise EventError(f"duplicate metric name {node.name!r}")
            seen.add(node.name)
            parse_formula(node.formula)  # raises FormulaError on bad syntax
            for child in node.children:
                walk(child, depth + 1)

        for root in self.roots:
            walk(root, 1)

    def node_count(self) -> int:
        def count(node: MetricNode) -> int:
            return 1 + sum(count(c) for c in node.children)

        return sum(count(r) for r in self.roots)

    def metric_names(self) -> list[str]:
        names: list[str] = []

        def walk(node: MetricNode):
            names.append(node.name)
            for child in node.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return names

    def required_events(self) -> set[str]:
        metric_names = set(self.metric_names())
        needed: set[str] = set()

        def walk(node: MetricNode):
            for name in formula_names(parse_formula(node.formula)):
                if name not in metric_names and not name.startswith("meta."):
                    needed.add(name)
            for child in node.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return needed


@dataclass(frozen=True)
class BreakdownNode:
    name: str
    fraction: float
    negative_artifact: bool = False
    children: tuple["BreakdownNode", ...] = ()

    def find(self, name: str) -> Optional["BreakdownNode"]:
        if self.name == name:
            return self
        for child in self.children:
            hit = child.find(name)
            if hit is not None:
                return hit
        return None


def _slots_expr() -> str:
    return "(meta.width * meta.cycles)"


def builtin_tree() -> MetricTree:
    """The default metric hierarchy described in the module docstring."""
    slots = _slots_expr()

    def leaf(name, formula, negative_ok=False):
        return MetricNode(name, formula, negative_ok=negative_ok)

    retiring = MetricNode(
        "Retiring", f"uops_retired / {slots}",
        children=(
            MetricNode("Base", f"Retiring - ms_uops / {slots}"),
            leaf("Microcode_Sequencer", f"ms_uops / {slots}"),
        ),
    )
    bad_speculation = MetricNode(
        "Bad_Speculation",
        f"(uops_issued - uops_retired + meta.width * recovery_cycles) / {slots}",
        children=(
            MetricNode(
                "Branch_Mispredicts",
                "Bad_Speculation - machine_clear_recovery_cycles / meta.cycles",
            ),
            leaf("Machine_Clears", "machine_clear_recovery_cycles / meta.cycles"),
        ),
    )
    frontend = MetricNode(
        "Frontend_Bound", f"frontend_undelivered_slots / {slots}",
        children=(
            MetricNode(
                "Frontend_Latency", "frontend_zero_delivery_cycles / meta.cycles",
                children=(
                    leaf("ICache_Misses", "icache_miss_stall_cycles / meta.cycles"),
                    leaf("ITLB_Misses", "itlb_miss_stall_cycles / meta.cycles"),
                    leaf("Branch_Resteers", "branch_resteer_stall_cycles / meta.cycles"),
                    leaf("DSB_Switches", "dsb_switch_stall_cycles / meta.cycles"),
                    leaf("LCP", "lcp_stall_cycles / meta.cycles"),
                    leaf("MS_Switches", "ms_switch_stall_cycles / meta.cycles"),
                ),
            ),
            MetricNode(
                "Frontend_Bandwidth", "Frontend_Bound - Frontend_Latency",
                children=(
                    leaf("MITE", "mite_stall_cycles / meta.cycles"),
                    leaf("DSB", "dsb_stall_cycles / meta.cycles"),
                    leaf("LSD", "lsd_stall_cycles / meta.cycles"),
                ),
            ),
        ),
    )
    backend = MetricNode(
        "Backend_Bound", "1 - Retiring - Bad_Speculation - Frontend_Bound",
        children=(
            MetricNode(
                "Backend_Core",
                "Backend_Bound - (memory_stall_cycles + store_buffer_stall_cycles) / meta.cycles",
                children=(
                    leaf("Divider", "divider_active_cycles / meta.cycles"),
                    leaf("Port_Utilization", "port_underutilized_cycles / meta.cycles"),
                ),
            ),
            MetricNode(
                "Backend_Memory",
                "(memory_stall_cycles + store_buffer_stall_cycles) / meta.cycles",
                children=(
                    leaf("L1_Bound",
                         "(memory_stall_cycles - l1d_pending_stall_cycles) / meta.cycles"),
                    # Difference of pending-stall counters; errata can push it
                    # below zero, hence negative_ok.
                    leaf("L2_Bound",
                         "(l1d_pending_stall_cycles - l2_pending_stall_cycles) / meta.cycles",
                         negative_ok=True),
                    leaf("L3_Bound",
                         "(l2_pending_stall_cycles - dram_pending_stall_cycles) / meta.cycles"),
                    MetricNode(
                        "DRAM_Bound", "dram_pending_stall_cycles / meta.cycles",
                        children=(
                            leaf("Bandwidth", "dram_bandwidth_stall_cycles / meta.cycles"),
                            leaf("Local_DRAM", "local_dram_stall_cycles / meta.cycles"),
                            leaf("Remote_DRAM", "remote_dram_stall_cycles / meta.cycles"),
                            leaf("Remote_Cache", "remote_cache_stall_cycles / meta.cycles"),
                        ),
                    ),
                    leaf("Store_Bound", "store_buffer_stall_cycles / meta.cycles"),
                ),
            ),
        ),
    )
    return MetricTree((retiring, bad_speculation, frontend, backend))


LEVEL1_NAMES = ("Retiring", "Bad_Speculation", "Frontend_Bound", "Backend_Bound")


# ---------------------------------------------------------------------------
# tree config files: a JSON node object {name, formula, expected_fraction,
# negative_ok, children:[...]} or a list of such objects (multiple roots)


def _node_to_json(node: MetricNode) -> dict:
    return {
        "name": node.name,
        "formula": node.formula,
        "expected_fraction": node.expected_fraction,
        "negative_ok": node.negative_ok,
        "children": [_node_to_json(c) for c in node.children],
    }


def tree_to_json(tree: MetricTree) -> list[dict]:
    return [_node_to_json(r) for r in tree.roots]


def _node_from_json(obj: dict) -> MetricNode:
    if not isinstance(obj, dict) or "name" not in obj or "formula" not in obj:
        raise EventError(f"tree node needs 'name' and 'formula': {obj!r}")
    return MetricNode(
        name=str(obj["name"]),
        formula=str(obj["formula"]),
        expected_fraction=bool(obj.get("expected_fraction", True)),
        negative_ok=bool(obj.get("negative_ok", False)),
        children=tuple(_node_from_json(c) for c in obj.get("children", [])),
    )


def tree_from_json(doc) -> MetricTree:
    if isinstance(doc, dict):
        doc = [doc]
    return MetricTree(tuple(_node_from_json(obj) for obj in doc))


def load_tree(path: str) -> MetricTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise EventError(f"{path}: bad tree JSON: {exc}") from None
    return tree_from_json(doc)


# ---------------------------------------------------------------------------
# evaluation


def evaluate_tree(sample: EventSample, tree: MetricTree) -> BreakdownNode:
    """Evaluate every metric top-down and return the breakdown rooted at a
    synthetic 'pipeline' container (fraction 1.0) holding the level-1 nodes.

    Raises MissingEventsError naming every absent event, FormulaError on
    division by zero, and EventError when a fraction leaves [-0.05, 1.05] or
    children overshoot their parent beyond the 0.02 tolerance.
    """
    if not sample.cycles > 0:
        raise EventError(f"cycles must be > 0, got {sample.cycles}")
    missing = tree.required_events() - set(sample.events)
    missing.discard("cycles")
    if missing:
        raise MissingEventsError(missing)

    env: dict[str, float] = dict(sample.events)
    env["meta.width"] = float(sample.width)
    env["meta.cycles"] = float(sample.cycles)
    env.setdefault("cycles", float(sample.cycles))

    def fraction_children(parent: MetricNode) -> set[str]:
        return {c.name for c in parent.children if c.expected_fraction}

    def eval_node(node: MetricNode) -> BreakdownNode:
        value = eval_formula(parse_formula(node.formula), env, node.name)
        negative = False
        if node.expected_fraction:
            if not (FRACTION_LO <= value <= FRACTION_HI):
                raise EventError(
                    f"{node.name} = {value:.6f} outside [{FRACTION_LO}, {FRACTION_HI}]"
                )
            if value < -1e-12:
                if not node.negative_ok:
                    raise EventError(f"{node.name} = {value:.6f} is negative")
                negative = True
        env[node.name] = value
        children = tuple(eval_node(c) for c in node.children)
        if children:
            counted = fraction_children(node)
            child_sum = sum(c.fraction for c in children if c.name in counted)
            if node.expected_fraction and child_sum > value + CHILD_SUM_TOLERANCE:
                raise EventError(
                    f"children of {node.name} sum to {child_sum:.6f}, "
                    f"parent is {value:.6f} (tolerance {CHILD_SUM_TOLERANCE})"
                )
        return BreakdownNode(node.name, value, negative, children)

    evaluated = tuple(eval_node(root) for root in tree.roots)
    top_sum = sum(n.fraction for n in evaluated)
    if len(evaluated) > 1 and top_sum > 1.0 + CHILD_SUM_TOLERANCE:
        raise EventError(f"level-1 fractions sum to {top_sum:.6f} > 1")
    return BreakdownNode("pipeline", 1.0, False, evaluated)


def breakdown_to_json(node: BreakdownNode) -> dict:
    return {
        "name": node.name,
        "fraction": node.fraction,
        "negative_artifact": node.negative_artifact,
        "children": [breakdown_to_json(c) for c in node.children],
    }


# ---------------------------------------------------------------------------
# scalar metrics


def ipc(sample: EventSample) -> float:
    """Retired instructions per cycle."""
    if "instructions_retired" not in sample.events:
        raise MissingEventsError(["instructions_retired"])
    if not sample.cycles > 0:
        raise EventError("cycles must be > 0")
    return sample.events["instructions_retired"] / sample.cycles


def mlp(sample: EventSample) -> float:
    """Average outstanding L1D misses over cycles with at least one; 0 when
    no such cycles were observed."""
    missing = [n for n in ("l1d_miss_occupancy", "l1d_miss_cycles") if n not in sample.events]
    if missing:
        raise MissingEventsError(missing)
    denom = sample.events["l1d_miss_cycles"]
    if denom == 0:
        return 0.0
    return sample.events["l1d_miss_occupancy"] / denom


def ms_uops_ratio(sample: EventSample) -> float:
    """Microcode-sequencer uops per retired uop; pressure indicator for
    instructions that bypass the default decoders."""
    missing = [n for n in ("ms_uops", "uops_retired") if n not in sample.events]
    if missing:
        raise MissingEventsError(missing)
    retired = sample.events["uops_retired"]
    if retired == 0:
        return 0.0
    return sample.events["ms_uops"] / retired


# ---------------------------------------------------------------------------
# metric vectors


@dataclass(frozen=True)
class MetricVector:
    label: str
    names: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise EventError("metric vector names/values length mismatch")
        for name, value in zip(self.names, self.values):
            if not math.isfinite(value):
                raise EventError(f"metric {name!r} has non-finite value {value!r}")


def to_metric_vector(
    breakdown: BreakdownNode,
    ipc_value: float,
    mlp_value: float,
    label: str,
    extras: tuple = (),
) -> MetricVector:
    """Deterministic pre-order flattening of all tree fractions plus the
    scalar metrics; the synthetic container root is not a metric and is
    skipped. extras appends further (name, value) pairs, e.g. ms_uops_ratio."""
    names: list[str] = []
    values: list[float] = []

    def walk(node: BreakdownNode):
        names.append(node.name)
        values.append(node.fraction)
        for child in node.children:
            walk(child)

    roots = breakdown.children if breakdown.name == "pipeline" else (breakdown,)
    for root in roots:
        walk(root)
    names.extend(["ipc", "mlp"])
    values.extend([ipc_value, mlp_value])
    for name, value in extras:
        names.append(name)
        values.append(value)
    return MetricVector(label, tuple(names), tuple(values))
