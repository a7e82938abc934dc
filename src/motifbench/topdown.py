"""Hierarchical pipeline-bottleneck model over hardware-event counts.

Every issue slot (issue_width per cycle) is classified at the top level into
four fractions that sum to one: Retiring, Bad_Speculation, Frontend_Bound and
Backend_Bound, the last the residual of the other three. Lower levels
attribute each category to causes, drilling down to DRAM behavior. The
built-in hierarchy and its formulas are the tree file trees/topdown.json, in
the format --tree files take.

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

import ast
import functools
import json
import math
import os
from typing import NamedTuple, Optional

from .dataio import read_input
from .datasets import MetricVector, Record
from .errors import EventError, FormulaError, MissingEventsError
from .floatsum import left_sum

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
# formula language: Python arithmetic restricted to + - * /, unary -,
# parentheses, int/float literals and dotted names (meta.width, UOPS.ALL)

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)

# Bounds the recursion of _checked; the built-in formulas nest at most four
# deep.
MAX_FORMULA_DEPTH = 100

# Errors quote at most this much of a formula, so one rejected formula cannot
# turn into a diagnostic as long as itself.
_QUOTE_CHARS = 200

# The one name compiled formulas read; every formula name is a key into it.
_ENV = "env"


def _quote(formula: str) -> str:
    return repr(formula[:_QUOTE_CHARS]) + ("..." if len(formula) > _QUOTE_CHARS else "")


def parse_formula(formula: str):
    """Compile a formula; returns (code, names), the code eval_formula runs and
    the set of names the formula reads. Raises FormulaError on anything
    outside the formula language."""
    try:
        body = ast.parse(formula.strip(), mode="eval").body
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # ValueError covers lone surrogates; RecursionError and MemoryError
        # are how CPython's parser reports input nested past its own limits.
        raise FormulaError(f"bad formula {_quote(formula)}: {exc}") from None
    names: set[str] = set()
    tree = ast.Expression(_checked(body, formula, 0, names))
    return compile(tree, "<formula>", "eval"), names


def _checked(node, formula: str, depth: int, names: set):
    """Check one node of the whitelist and rewrite it for compile: numbers
    become floats and a dotted name (meta.width) becomes env["meta.width"],
    so a name resolves in the evaluation env and nowhere else."""
    if depth > MAX_FORMULA_DEPTH:
        raise FormulaError(f"formula nested deeper than {MAX_FORMULA_DEPTH}: {_quote(formula)}")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        node.left = _checked(node.left, formula, depth + 1, names)
        node.right = _checked(node.right, formula, depth + 1, names)
        return node
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node.operand = _checked(node.operand, formula, depth + 1, names)
        return node
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            node.value = float(node.value)
        except OverflowError:
            raise FormulaError(f"number too large in {_quote(formula)}") from None
        return node
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        name = ".".join([node.id, *reversed(attrs)])
        names.add(name)
        # compile needs a source location on every node; the new ones take the name's
        env = ast.copy_location(ast.Name(_ENV, ast.Load()), node)
        key = ast.copy_location(ast.Constant(name), node)
        return ast.copy_location(ast.Subscript(env, key, ast.Load()), node)
    raise FormulaError(f"unsupported {type(node).__name__} in formula {_quote(formula)}")


def eval_formula(parsed, env: dict, where: str) -> float:
    """Evaluate a parse_formula result over env (name -> value)."""
    try:
        return eval(parsed[0], {"__builtins__": {}, _ENV: env})
    except KeyError as exc:
        raise MissingEventsError(exc.args) from None
    except ZeroDivisionError:
        raise FormulaError(f"{where}: division by zero") from None


# ---------------------------------------------------------------------------
# event samples


class EventSample(Record):
    """Named event counts plus collection metadata. events always names the
    cycle count: construction sets events["cycles"] to cycles. A sample
    holds a dict, so it is unhashable."""

    __slots__ = _fields = ("events", "width", "cycles", "label")

    def __init__(self, events: dict[str, float], width: int = DEFAULT_ISSUE_WIDTH,
                 cycles: float = 0.0, label: str = ""):
        if width < 1:
            raise EventError(f"issue width must be >= 1, got {width}")
        if not cycles > 0:
            raise EventError(f"cycles must be present and > 0, got {cycles}")
        events = {**events, "cycles": cycles}
        self._set(events=events, width=width, cycles=cycles, label=label)
        for name, count in events.items():
            if not math.isfinite(count):
                raise EventError(f"event {name!r} has non-finite count {count!r}")
            if count < 0:
                raise EventError(f"event {name!r} has negative count {count}")


def parse_sample(text: str, path: str = "<sample>",
                 width: Optional[int] = None,
                 mapping: Optional[dict[str, str]] = None) -> EventSample:
    """Parse an event dump: CSV lines 'event_name,count', metadata lines
    '#meta key=value' (keys width, cycles, label). A 'cycles' event row also
    sets the cycle count. Empty or duplicate event names and unknown or
    duplicate metadata keys are errors. A mapping of abstract to platform
    counter names is applied before validation so a platform-named cycles
    counter still satisfies the cycles requirement."""
    events: dict[str, float] = {}
    meta: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#meta"):
            body = line[len("#meta"):].strip()
            if "=" not in body:
                raise EventError(f"bad metadata line {line!r}", path=path, line=lineno)
            key, _, value = body.partition("=")
            key = key.strip()
            if key not in ("width", "cycles", "label"):
                raise EventError(f"unknown metadata key {key!r}", path=path, line=lineno)
            if key in meta:
                raise EventError(f"duplicate metadata key {key!r}", path=path, line=lineno)
            meta[key] = value.strip()
            continue
        if line.startswith("#"):
            continue
        name, comma, count_text = line.partition(",")
        name = name.strip()
        if not (comma and name):
            raise EventError(f"expected 'event_name,count', got {line!r}", path=path, line=lineno)
        if name in events:
            raise EventError(f"duplicate event {name!r}", path=path, line=lineno)
        try:
            count = float(count_text.strip())
        except ValueError:
            raise EventError(f"bad count {count_text.strip()!r}", path=path, line=lineno) from None
        events[name] = count

    if mapping:
        for abstract, platform in mapping.items():
            if platform in events and abstract not in events:
                events[abstract] = events.pop(platform)
    cycles = events.get("cycles", 0.0)
    try:
        if "cycles" in meta:
            cycles = float(meta["cycles"])  # explicit metadata beats a counter row
        if width is None:
            width = int(meta.get("width", DEFAULT_ISSUE_WIDTH))
    except ValueError as exc:
        raise EventError(f"bad metadata value: {exc}", path=path) from None
    label = meta.get("label", os.path.splitext(os.path.basename(path))[0])
    try:
        return EventSample(events=events, width=width, cycles=cycles, label=label)
    except EventError as exc:
        raise EventError(str(exc), path=path) from None


def load_sample(path: str, width: Optional[int] = None,
                mapping: Optional[dict[str, str]] = None) -> EventSample:
    return parse_sample(read_input(path), path=path, width=width, mapping=mapping)


def load_mapping(path: str) -> dict[str, str]:
    """Event mapping CSV: 'abstract_name,platform_name' per line. An empty
    name is an error, and so is a name repeated on either side: parse_sample
    renames each platform counter once, so a second abstract name for it
    would go missing."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(read_input(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        abstract, comma, platform = line.partition(",")
        abstract, platform = abstract.strip(), platform.strip()
        if not (comma and abstract and platform):
            raise EventError(f"expected 'abstract,platform', got {line!r}", path=path, line=lineno)
        if abstract in mapping:
            raise EventError(f"duplicate abstract name {abstract!r}", path=path, line=lineno)
        if platform in mapping.values():
            raise EventError(f"platform counter {platform!r} mapped twice", path=path, line=lineno)
        mapping[abstract] = platform
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
    events = {name: left_sum(s.events[name] for s in samples) / n for name in names}
    label = samples[0].label
    return EventSample(events=events, width=samples[0].width, cycles=events["cycles"],
                       label=f"avg({label})" if label else "avg")


# ---------------------------------------------------------------------------
# metric trees


class MetricNode(NamedTuple):
    name: str
    formula: str
    expected_fraction: bool = True
    negative_ok: bool = False
    children: tuple["MetricNode", ...] = ()


def _preorder(roots):
    """(node, depth) pairs in pre-order, the order metrics are evaluated in;
    roots are at depth 1."""
    stack = [(root, 1) for root in reversed(roots)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((child, depth + 1) for child in reversed(node.children))


META_NAMES = ("meta.width", "meta.cycles")


class MetricTree(Record):
    """A validated metric hierarchy. Construction parses every formula once;
    a formula may name events, META_NAMES and metrics evaluated before it."""

    # _parsed and _events derive from roots, so they are left out of
    # equality: name -> parse_formula's (code, names) in evaluation order,
    # and the events the formulas need
    __slots__ = ("roots", "_parsed", "_events")
    _fields = ("roots",)

    def __init__(self, roots: tuple[MetricNode, ...]):
        if not roots:
            raise EventError("metric tree has no root")
        parsed: dict = {}
        events: set[str] = set()
        later = {node.name for node, _ in _preorder(roots)}
        for node, depth in _preorder(roots):
            if depth > 5:
                raise EventError(f"tree deeper than 5 levels at {node.name!r}")
            if node.name in parsed:
                raise EventError(f"duplicate metric name {node.name!r}")
            later.discard(node.name)
            parsed[node.name] = parse_formula(node.formula)
            for ref in parsed[node.name][1]:
                if ref in later or ref == node.name:
                    raise FormulaError(
                        f"{node.name}: formula names {ref!r}, which is not evaluated before it"
                    )
                if ref.startswith("meta.") and ref not in META_NAMES:
                    raise FormulaError(f"{node.name}: unknown metadata name {ref!r}")
                if ref not in parsed and ref not in META_NAMES:
                    events.add(ref)
        self._set(roots=roots, _parsed=parsed, _events=frozenset(events))

    def required_events(self) -> set[str]:
        return set(self._events)


class BreakdownNode(NamedTuple):
    name: str
    fraction: float
    negative_artifact: bool = False
    children: tuple["BreakdownNode", ...] = ()


# ---------------------------------------------------------------------------
# tree config files: a JSON node object {name, formula, expected_fraction,
# negative_ok, children:[...]} with no other key, or a list of them (roots)


_NODE_FIELDS = {"name": str, "formula": str, "expected_fraction": bool,
                "negative_ok": bool, "children": list}


def _node_from_json(obj: dict) -> MetricNode:
    if not isinstance(obj, dict) or "name" not in obj or "formula" not in obj:
        raise EventError(f"tree node needs 'name' and 'formula': {obj!r}")
    for key, value in obj.items():
        want = _NODE_FIELDS.get(key)
        if want is None:
            raise EventError(f"tree node {obj['name']!r}: unknown key {key!r}")
        if not isinstance(value, want):
            raise EventError(f"tree node {obj['name']!r}: {key!r} must be a "
                             f"{want.__name__}, got {value!r}")
    return MetricNode(
        name=obj["name"],
        formula=obj["formula"],
        expected_fraction=obj.get("expected_fraction", True),
        negative_ok=obj.get("negative_ok", False),
        children=tuple(_node_from_json(c) for c in obj.get("children", [])),
    )


def tree_from_json(doc) -> MetricTree:
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise EventError(f"a tree is a node object or a list of them, got {doc!r}")
    return MetricTree(tuple(_node_from_json(obj) for obj in doc))


def load_tree(path: str) -> MetricTree:
    try:
        doc = json.loads(read_input(path))
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, deep nesting
        raise EventError(f"bad tree JSON: {exc}", path=path) from None
    try:
        return tree_from_json(doc)
    except (EventError, FormulaError) as exc:
        raise type(exc)(str(exc), path=path) from None


_BUILTIN_TREE_PATH = os.path.join(os.path.dirname(__file__), "trees", "topdown.json")


@functools.cache
def builtin_tree() -> MetricTree:
    """The default metric hierarchy, trees/topdown.json; loaded once per
    process and shared, which is safe because trees are frozen."""
    return load_tree(_BUILTIN_TREE_PATH)


# ---------------------------------------------------------------------------
# evaluation


def evaluate_tree(sample: EventSample, tree: MetricTree) -> BreakdownNode:
    """Evaluate every metric top-down and return the breakdown rooted at a
    synthetic 'pipeline' container (fraction 1.0) holding the level-1 nodes.

    Raises MissingEventsError naming every absent event, FormulaError on
    division by zero, and EventError when a fraction leaves [-0.05, 1.05] or
    children overshoot their parent beyond the 0.02 tolerance.
    """
    missing = tree.required_events() - set(sample.events)
    if missing:
        raise MissingEventsError(missing)

    env: dict[str, float] = dict(sample.events)
    env["meta.width"] = float(sample.width)
    env["meta.cycles"] = float(sample.cycles)

    def eval_node(node: MetricNode) -> BreakdownNode:
        value = eval_formula(tree._parsed[node.name], env, node.name)
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
            child_sum = left_sum(b.fraction for b, c in zip(children, node.children)
                                 if c.expected_fraction)
            if node.expected_fraction and child_sum > value + CHILD_SUM_TOLERANCE:
                raise EventError(
                    f"children of {node.name} sum to {child_sum:.6f}, "
                    f"parent is {value:.6f} (tolerance {CHILD_SUM_TOLERANCE})"
                )
        return BreakdownNode(node.name, value, negative, children)

    evaluated = tuple(eval_node(root) for root in tree.roots)
    top_sum = left_sum(n.fraction for n in evaluated)
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


_json_string = json.encoder.encode_basestring_ascii


def _breakdown_text(node: BreakdownNode, pad: str) -> str:
    """node's breakdown_to_json dict as json.dumps(indent=2) spells it with
    its fields indented by pad: one f-string per node."""
    f = node.fraction
    fraction = float.__repr__(f) if type(f) is float and math.isfinite(f) else json.dumps(f)
    children = f",\n{pad}  ".join([_breakdown_text(c, pad + "    ") for c in node.children])
    children = f"[\n{pad}  {children}\n{pad}]" if children else "[]"
    return (f'{{\n{pad}"name": {_json_string(node.name)},\n{pad}"fraction": {fraction},\n'
            f'{pad}"negative_artifact": {"true" if node.negative_artifact else "false"},\n'
            f'{pad}"children": {children}\n{pad[:-2]}}}')


def analysis_json(doc: dict) -> str:
    """json.dumps(doc, indent=2) + "\\n" for a non-empty dict of JSON scalars
    and BreakdownNode trees (as breakdown_to_json dicts). Trees are written
    from their nodes: with indent, json.dumps runs its pure-Python encoder."""
    text = [_breakdown_text(v, "    ") if isinstance(v, BreakdownNode) else json.dumps(v)
            for v in doc.values()]
    return "{\n" + ",\n".join(f"  {_json_string(k)}: {t}" for k, t in zip(doc, text)) + "\n}\n"


# ---------------------------------------------------------------------------
# scalar metrics


def _counts(sample: EventSample, *names: str) -> list[float]:
    """The counts of `names` in `sample`; MissingEventsError names every
    absent one."""
    missing = [n for n in names if n not in sample.events]
    if missing:
        raise MissingEventsError(missing)
    return [sample.events[n] for n in names]


def ipc(sample: EventSample) -> float:
    """Retired instructions per cycle."""
    (retired,) = _counts(sample, "instructions_retired")
    return retired / sample.cycles


def mlp(sample: EventSample) -> float:
    """Average outstanding L1D misses over cycles with at least one; 0 when
    no such cycles were observed."""
    occupancy, denom = _counts(sample, "l1d_miss_occupancy", "l1d_miss_cycles")
    return occupancy / denom if denom != 0 else 0.0


def ms_uops_ratio(sample: EventSample) -> float:
    """Microcode-sequencer uops per retired uop; pressure indicator for
    instructions that bypass the default decoders."""
    ms_uops, retired = _counts(sample, "ms_uops", "uops_retired")
    return ms_uops / retired if retired != 0 else 0.0


def scalar_metrics(sample: EventSample) -> dict[str, float]:
    """The companion scalars of a sample, in output order: ipc and mlp, then
    ms_uops_ratio when the sample counts both ms_uops and uops_retired."""
    scalars = {"ipc": ipc(sample), "mlp": mlp(sample)}
    if "ms_uops" in sample.events and "uops_retired" in sample.events:
        scalars["ms_uops_ratio"] = ms_uops_ratio(sample)
    return scalars


# ---------------------------------------------------------------------------
# metric vectors


def to_metric_vector(breakdown: BreakdownNode, scalars: dict[str, float],
                     label: str) -> MetricVector:
    """Deterministic pre-order flattening of all tree fractions, then the
    scalar metrics (name -> value) in their order; the synthetic container
    root is not a metric and is skipped."""
    roots = breakdown.children if breakdown.name == "pipeline" else (breakdown,)
    names, values = zip(*[(node.name, node.fraction) for node, _ in _preorder(roots)],
                        *scalars.items())
    return MetricVector(label, names, values)
