"""Workload specs: parse, validate, execute.

A workload is a DAG written as named data nodes connected by motif
applications, one statement per line:

    workload "<name>"
    input <id> : <kind> @ "<path>"             # dataset read from a file
    input <id> = generate.<kind>(<params>)     # dataset produced by a generator
    node <id> = <family>.<kernel>(<operands>, <key>=<value>, ...)
    output <id> @ "<path>"

Comments start with '#'. Every operand must be defined on an earlier line,
which is also what keeps the graph acyclic. Input paths resolve relative to
the spec file's directory; output paths resolve relative to the working
directory.

execute() takes a spec from parse_spec, materializes its inputs once, then
for each repeat runs the invocations in order inside its `window` context (a
counter collector, say), times each kernel call, sizes each dataset once when
it is produced, frees intermediates after their last use, and returns one
RunReport per repeat.
"""

from __future__ import annotations

import contextlib
import os
import re
import time
from functools import cached_property
from types import MappingProxyType
from typing import Callable, ContextManager, NamedTuple, Optional

from . import generators
from .dataio import (
    checksum_hex,
    checksum_payload,
    load_dataset,
    payload_size,
    read_input,
    resolve_path,
    save_dataset,
)
from .datasets import ALL_KINDS, Record, kind_of
from .errors import (
    FormatError,
    InvariantError,
    KernelError,
    MotifBenchError,
    SpecError,
)
from .kernels import REGISTRY, SAME_AS_INPUT, get_kernel


class InputDecl(NamedTuple):
    dataset_id: str
    line: int
    kind: str
    path: Optional[str] = None
    genspec: Optional[generators.GenSpec] = None


class MotifInvocation(Record):
    """One `node` line. `params` holds each parameter's text as written.
    `kernel_params` is that text coerced by the kernel's schema, once:
    validate_spec computes it, and execute passes the same dict to the kernel.
    It has no __slots__: cached_property keeps kernel_params in __dict__."""

    _fields = ("result_id", "motif", "operands", "params", "line")

    def __init__(self, result_id: str, motif: str, operands: tuple[str, ...],
                 params: tuple[tuple[str, str], ...], line: int):
        self._set(result_id=result_id, motif=motif, operands=operands, params=params,
                  line=line)

    @cached_property
    def kernel_params(self) -> dict:
        """Every schema key with its checked value; raises KernelError."""
        return get_kernel(self.motif).coerce_params(dict(self.params))


class OutputDecl(NamedTuple):
    dataset_id: str
    path: str
    line: int


class WorkloadSpec(NamedTuple):
    name: str
    inputs: tuple[InputDecl, ...]
    invocations: tuple[MotifInvocation, ...]
    outputs: tuple[OutputDecl, ...]


class InvocationRecord(NamedTuple):
    id: str  # the result's dataset id
    motif: str
    wall_ns: int
    in_bytes: int
    out_bytes: int


class RunReport(NamedTuple):
    workload: str
    repeat_index: int
    invocations: tuple[InvocationRecord, ...]
    total_ns: int
    family_fractions: dict[str, float] = MappingProxyType({})
    output_checksums: dict[str, int] = MappingProxyType({})


class WorkloadRuntimeError(MotifBenchError):
    """A kernel or I/O failure during execution, tagged with the invocation."""


# ---------------------------------------------------------------------------
# parsing

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_RE_WORKLOAD = re.compile(r'^workload\s+"(?P<name>[^"]*)"\s*$')
_RE_INPUT_FILE = re.compile(
    rf'^input\s+(?P<id>{_ID})\s*:\s*(?P<kind>{_ID})\s*@\s*"(?P<path>[^"]*)"\s*$'
)
_RE_INPUT_GEN = re.compile(
    rf"^input\s+(?P<id>{_ID})\s*=\s*generate\.(?P<kind>{_ID})\s*\((?P<args>.*)\)\s*$"
)
_RE_NODE = re.compile(
    rf"^node\s+(?P<id>{_ID})\s*=\s*(?P<family>{_ID})\.(?P<kernel>{_ID})\s*\((?P<args>.*)\)\s*$"
)
_RE_OUTPUT = re.compile(rf'^output\s+(?P<id>{_ID})\s*@\s*"(?P<path>[^"]*)"\s*$')

# A quoted value runs to the next '"' (there are no escapes), or to the end of
# the text when unterminated; '#', ',' and '=' inside it are literal.
_QUOTED = r'"[^"]*"?'


def _outside_quotes(stop: str) -> str:
    """Pattern for the text up to the first `stop` character outside quotes:
    a run of plain characters, then repeatedly one quoted value and the run
    after it. Every character is read once and no match can fail, so a scan
    is linear in the line length."""
    plain = f'[^"{stop}]*'
    return f"{plain}(?:{_QUOTED}{plain})*"


_RE_CODE = re.compile(_outside_quotes("#"))  # the line before its comment
_RE_ARG = re.compile(rf"(?:^|,)({_outside_quotes(',')})")  # one comma-separated argument
_RE_KEY_VALUE = re.compile(rf"({_outside_quotes('=')})(=?)(.*)", re.S)  # split at the first =


def _parse_value(raw: str) -> str:
    """The value's text without its quotes: the parameter's schema converts it
    by the parameter's kind (params.coerce), so a str keeps its spelling."""
    if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
        return raw[1:-1]
    return raw


def _parse_arglist(args: str, path: str, lineno: int, allow_operands: bool):
    operands: list[str] = []
    params: dict[str, str] = {}
    parts = _RE_ARG.findall(args) if args.strip() else []
    for part in map(str.strip, parts):
        if not part:
            raise SpecError(f"empty argument in ({args})", path, lineno)
        key, eq, value = _RE_KEY_VALUE.match(part).groups()
        if not eq:
            if not allow_operands:
                raise SpecError(f"expected key=value, got {part!r}", path, lineno)
            if not re.fullmatch(_ID, part):
                raise SpecError(f"bad operand id {part!r}", path, lineno)
            if params:
                raise SpecError(f"operand {part!r} appears after keyword parameters", path,
                                lineno)
            operands.append(part)
        else:
            key = key.strip()
            if not re.fullmatch(_ID, key):
                raise SpecError(f"bad parameter name {key!r}", path, lineno)
            if key in params:
                raise SpecError(f"duplicate parameter {key!r}", path, lineno)
            params[key] = _parse_value(value.strip())
    return operands, params


def parse_spec(text: str, path: str = "<spec>") -> WorkloadSpec:
    """Parse and fully validate a workload spec document read from `path`.

    Raises SpecError, located at `path` and a line, on any syntax error,
    unknown motif, undefined dataset id, arity or kind mismatch, or cycle.
    """
    name: Optional[str] = None
    inputs: list[InputDecl] = []
    invocations: list[MotifInvocation] = []
    outputs: list[OutputDecl] = []

    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = _RE_CODE.match(raw_line).group().strip()
        if not line:
            continue
        if line.count('"') % 2:
            raise SpecError(f"unterminated quoted value: {line!r}", path, lineno)
        m = _RE_WORKLOAD.match(line)
        if m:
            if name is not None:
                raise SpecError("duplicate workload line", path, lineno)
            name = m.group("name")
            if not name:
                raise SpecError("workload name must be non-empty", path, lineno)
            continue
        m = _RE_INPUT_FILE.match(line)
        if m:
            inputs.append(InputDecl(m.group("id"), lineno, m.group("kind"), path=m.group("path")))
            continue
        m = _RE_INPUT_GEN.match(line)
        if m:
            _, params = _parse_arglist(m.group("args"), path, lineno, allow_operands=False)
            try:
                spec = generators.make_genspec(m.group("kind"), params)
            except InvariantError as exc:
                raise SpecError(str(exc), path, lineno) from None
            inputs.append(InputDecl(m.group("id"), lineno, spec.kind, genspec=spec))
            continue
        m = _RE_NODE.match(line)
        if m:
            operands, params = _parse_arglist(m.group("args"), path, lineno, allow_operands=True)
            motif = f"{m.group('family')}.{m.group('kernel')}"
            invocations.append(
                MotifInvocation(
                    m.group("id"), motif, tuple(operands), tuple(sorted(params.items())), lineno
                )
            )
            continue
        m = _RE_OUTPUT.match(line)
        if m:
            outputs.append(OutputDecl(m.group("id"), m.group("path"), lineno))
            continue
        raise SpecError(f"syntax error: {line!r}", path, lineno)

    if name is None:
        raise SpecError('missing workload "<name>" line', path, 1)
    spec = WorkloadSpec(name, tuple(inputs), tuple(invocations), tuple(outputs))
    problems = validate_spec(spec, path)
    if problems:
        raise SpecError("; ".join(map(str, problems)), diagnostics=problems)
    return spec


def parse_spec_file(path: str) -> WorkloadSpec:
    return parse_spec(read_input(path), path)


# ---------------------------------------------------------------------------
# validation


def validate_spec(s: WorkloadSpec, path: str = "<spec>") -> list[SpecError]:
    """Empty list iff the spec satisfies every invariant; each problem names
    the offending dataset id or motif and is located at `path` and its line.
    Problems come in line order, and within a line in check order."""
    problems: list[SpecError] = []

    def problem(message: str, line: int):
        problems.append(SpecError(message, path, line))

    # Each input and node defines its id on its own line, and the first
    # definition wins. One whose own check fails defines it with unknown kind,
    # so the lines using it are not blamed for that. Knowing every id up front
    # tells a forward reference (a cycle in execution order) from an unknown id.
    defined = {d.dataset_id for d in s.inputs} | {inv.result_id for inv in s.invocations}
    kinds: dict[str, str] = {}  # ids defined on earlier lines -> kind, "" if unknown
    writers: dict[str, int] = {}  # normalized output path -> first line writing it
    for st in sorted([*s.inputs, *s.invocations, *s.outputs], key=lambda st: st.line):
        if isinstance(st, OutputDecl):
            if st.dataset_id not in defined:
                problem(f"undefined dataset id {st.dataset_id!r}", st.line)
            if not st.path:
                problem("empty output path", st.line)
                continue
            first = writers.setdefault(os.path.normpath(st.path), st.line)
            if first != st.line:
                problem(f"output path {st.path!r} is already written on line {first}", st.line)
            continue
        sid = st.dataset_id if isinstance(st, InputDecl) else st.result_id
        if sid in kinds:
            problem(f"duplicate dataset id {sid!r}", st.line)
        if isinstance(st, MotifInvocation):
            kind = _node_kind(st, kinds, defined, problem)
        elif st.kind in ALL_KINDS:
            kind = st.kind
        else:
            problem(f"unknown payload kind {st.kind!r}", st.line)
            kind = ""
        kinds.setdefault(sid, kind)
    return problems


def _node_kind(inv: MotifInvocation, kinds: dict[str, str], defined: set[str],
               problem: Callable[[str, int], None]) -> str:
    """Check one node line; the kind of its result, "" if unknown or the
    line fails a check."""
    kspec = REGISTRY.get(inv.motif)
    if kspec is None:
        problem(f"unknown motif {inv.motif!r}", inv.line)
        return ""
    ok = True
    for op in inv.operands:
        if op in kinds:
            continue
        if op in defined:
            # Defined, but on this line or a later one: a back edge in
            # execution order.
            problem(f"cycle detected: {inv.result_id!r} consumes {op!r}, "
                    "which is not defined earlier", inv.line)
        else:
            problem(f"undefined dataset id {op!r}", inv.line)
        ok = False
    if len(inv.operands) != kspec.arity:
        problem(f"{inv.motif} takes {kspec.arity} operand(s), got {len(inv.operands)}",
                inv.line)
        ok = False
    if ok:
        for op, accepted in zip(inv.operands, kspec.input_kinds):
            if kinds[op] and kinds[op] not in accepted:
                problem(f"{inv.motif} cannot take {kinds[op]} payload {op!r} "
                        f"(accepts {', '.join(sorted(accepted))})", inv.line)
                ok = False
    try:
        inv.kernel_params  # coerced here once; execute runs this dict
    except KernelError as exc:
        problem(str(exc), inv.line)
        ok = False
    if not ok:
        return ""
    return kinds[inv.operands[0]] if kspec.output_kind == SAME_AS_INPUT else kspec.output_kind


# ---------------------------------------------------------------------------
# execution


def _materialize_inputs(s: WorkloadSpec, base_dir: Optional[str]) -> dict[str, object]:
    env: dict[str, object] = {}
    for decl in s.inputs:
        if decl.genspec is not None:
            env[decl.dataset_id] = generators.materialize(decl.genspec, base_dir).payload
        else:
            payload = load_dataset(resolve_path(decl.path, base_dir)).payload
            if (kind := kind_of(payload)) != decl.kind:
                raise WorkloadRuntimeError(
                    f"input {decl.dataset_id!r}: file {decl.path!r} holds a {kind} "
                    f"payload, declared {decl.kind}")
            env[decl.dataset_id] = payload
    return env


def family_fractions(records) -> dict[str, float]:
    total = sum(r.wall_ns for r in records)
    if total == 0:
        return {}
    by_family: dict[str, int] = {}
    for r in records:
        fam = r.motif.split(".", 1)[0]
        by_family[fam] = by_family.get(fam, 0) + r.wall_ns
    return {fam: by_family[fam] / total for fam in sorted(by_family)}


def execute(
    s: WorkloadSpec,
    repeat: int = 1,
    base_dir: Optional[str] = None,
    window: Callable[[], ContextManager] = contextlib.nullcontext,
) -> list[RunReport]:
    """Run the DAG `repeat` times; returns reports in repeat order.

    `s` comes from parse_spec, which has validated it and so coerced each
    invocation's kernel_params. Input materialization happens once, before
    the first repeat; each repeat's invocation loop alone runs inside a fresh
    `window()`, and its output checksums follow it. Kernels are pure and all
    randomness is seeded, so results must be bit-identical across repeats: an
    output whose checksum differs from repeat 0's raises WorkloadRuntimeError.
    Outputs are written once, after the last repeat.
    """
    if repeat < 1:
        raise InvariantError(f"repeat must be >= 1, got {repeat}")
    calls = [(inv, get_kernel(inv.motif).fn, inv.kernel_params) for inv in s.invocations]
    base_env = _materialize_inputs(s, base_dir)
    base_sizes = {oid: payload_size(payload) for oid, payload in base_env.items()}
    output_ids = {o.dataset_id for o in s.outputs}
    last_use: dict[str, int] = {}
    for idx, inv in enumerate(s.invocations):
        for op in inv.operands:
            last_use[op] = idx

    reports: list[RunReport] = []
    for r in range(repeat):
        env = dict(base_env)
        sizes = dict(base_sizes)
        records: list[InvocationRecord] = []
        with window():
            for idx, (inv, fn, params) in enumerate(calls):
                ops = [env[o] for o in inv.operands]
                t0 = time.perf_counter_ns()
                try:
                    result = fn(*ops, **params)
                except MotifBenchError as exc:
                    raise WorkloadRuntimeError(
                        f"invocation {inv.result_id!r} ({inv.motif}) failed: {exc}"
                    ) from exc
                wall_ns = time.perf_counter_ns() - t0
                env[inv.result_id] = result
                out_bytes = sizes[inv.result_id] = payload_size(result)
                in_bytes = sum(sizes[o] for o in inv.operands)
                records.append(
                    InvocationRecord(inv.result_id, inv.motif, wall_ns, in_bytes, out_bytes)
                )
                for op in inv.operands:
                    if last_use.get(op) == idx and op not in output_ids and op in env:
                        del env[op]
        checks = {oid: checksum_payload(env[oid]) for oid in sorted(output_ids) if oid in env}
        for oid, value in checks.items():
            if reports and value != reports[0].output_checksums[oid]:
                raise WorkloadRuntimeError(
                    f"output {oid!r} is not deterministic: repeat {r} checksum "
                    f"{checksum_hex(value)}, repeat 0 "
                    f"{checksum_hex(reports[0].output_checksums[oid])}"
                )
        reports.append(
            RunReport(
                workload=s.name,
                repeat_index=r,
                invocations=tuple(records),
                total_ns=sum(rec.wall_ns for rec in records),
                family_fractions=family_fractions(records),
                output_checksums=checks,
            )
        )

    for out in s.outputs:
        try:
            save_dataset(env[out.dataset_id], out.path)
        except (OSError, FormatError) as exc:
            raise WorkloadRuntimeError(f"writing output {out.dataset_id!r}: {exc}") from exc
    return reports


def report_document(reports: list[RunReport], counters: Optional[dict] = None) -> dict:
    """Combined JSON-ready document for a run: per-repeat records plus the
    family runtime aggregation over all repeats."""
    if not reports:
        raise InvariantError("no reports")
    doc = {
        "workload": reports[0].workload,
        "repeats": [
            {
                "repeat": rep.repeat_index,
                "invocations": [rec._asdict() for rec in rep.invocations],
                "total_ns": rep.total_ns,
                "family_fractions": dict(rep.family_fractions),
                "output_checksums": {k: checksum_hex(v) for k, v in rep.output_checksums.items()},
            }
            for rep in reports
        ],
        "family_fractions": family_fractions([rec for rep in reports for rec in rep.invocations]),
    }
    if counters is not None:
        doc["counters"] = counters
    return doc
