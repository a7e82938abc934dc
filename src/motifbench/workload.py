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

execute() runs the invocations in order, times each one on a monotonic clock
(parsing, input materialization, and output writes are not timed), frees
intermediates after their last use, and returns one RunReport per repeat.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from typing import Optional

from . import generators
from .dataio import checksum_payload, load_dataset, payload_size, save_dataset
from .datasets import ALL_KINDS, Dataset
from .errors import (
    FormatError,
    InvariantError,
    KernelError,
    MotifBenchError,
    SpecError,
)
from .kernels import REGISTRY, SAME_AS_INPUT, get_kernel


@dataclass(frozen=True)
class Diagnostic:
    message: str
    subject: str = ""
    line: Optional[int] = None

    def __str__(self) -> str:
        if self.line is not None:
            return f"line {self.line}: {self.message}"
        return self.message


@dataclass(frozen=True)
class InputDecl:
    dataset_id: str
    line: int
    kind: str
    path: Optional[str] = None
    genspec: Optional[generators.GenSpec] = None


@dataclass(frozen=True)
class MotifInvocation:
    result_id: str
    motif: str
    operands: tuple[str, ...]
    params: tuple[tuple[str, object], ...]
    line: int

    def param_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class OutputDecl:
    dataset_id: str
    path: str
    line: int


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    inputs: tuple[InputDecl, ...]
    invocations: tuple[MotifInvocation, ...]
    outputs: tuple[OutputDecl, ...]


@dataclass(frozen=True)
class InvocationRecord:
    dataset_id: str
    motif: str
    wall_ns: int
    in_bytes: int
    out_bytes: int


@dataclass(frozen=True)
class RunReport:
    workload: str
    repeat_index: int
    invocations: tuple[InvocationRecord, ...]
    total_ns: int
    family_fractions: dict[str, float] = field(default_factory=dict)
    output_checksums: dict[str, int] = field(default_factory=dict)


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


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out).strip()


def _split_args(text: str) -> list[str]:
    parts = []
    cur = []
    in_quote = False
    for ch in text:
        if ch == '"':
            in_quote = not in_quote
            cur.append(ch)
        elif ch == "," and not in_quote:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail or parts:
        parts.append(tail)
    return parts


def _parse_value(raw: str):
    if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _parse_arglist(args: str, lineno: int, allow_operands: bool):
    operands: list[str] = []
    params: dict[str, object] = {}
    for part in _split_args(args):
        if not part:
            raise SpecError([Diagnostic(f"empty argument in ({args})", line=lineno)])
        eq = -1
        in_quote = False
        for i, ch in enumerate(part):
            if ch == '"':
                in_quote = not in_quote
            elif ch == "=" and not in_quote:
                eq = i
                break
        if eq == -1:
            if not allow_operands:
                raise SpecError([Diagnostic(f"expected key=value, got {part!r}", line=lineno)])
            if not re.fullmatch(_ID, part):
                raise SpecError([Diagnostic(f"bad operand id {part!r}", part, lineno)])
            if params:
                raise SpecError(
                    [Diagnostic(f"operand {part!r} appears after keyword parameters", part, lineno)]
                )
            operands.append(part)
        else:
            key = part[:eq].strip()
            if not re.fullmatch(_ID, key):
                raise SpecError([Diagnostic(f"bad parameter name {key!r}", key, lineno)])
            if key in params:
                raise SpecError([Diagnostic(f"duplicate parameter {key!r}", key, lineno)])
            params[key] = _parse_value(part[eq + 1 :].strip())
    return operands, params


def parse_spec(text: str) -> WorkloadSpec:
    """Parse and fully validate a workload spec document.

    Raises SpecError carrying line-numbered diagnostics on any syntax error,
    unknown motif, undefined dataset id, arity or kind mismatch, or cycle.
    """
    name: Optional[str] = None
    inputs: list[InputDecl] = []
    invocations: list[MotifInvocation] = []
    outputs: list[OutputDecl] = []

    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue
        if line.count('"') % 2:
            raise SpecError([Diagnostic(f"unterminated quoted value: {line!r}", line=lineno)])
        m = _RE_WORKLOAD.match(line)
        if m:
            if name is not None:
                raise SpecError([Diagnostic("duplicate workload line", line=lineno)])
            name = m.group("name")
            if not name:
                raise SpecError([Diagnostic("workload name must be non-empty", line=lineno)])
            continue
        m = _RE_INPUT_FILE.match(line)
        if m:
            inputs.append(InputDecl(m.group("id"), lineno, m.group("kind"), path=m.group("path")))
            continue
        m = _RE_INPUT_GEN.match(line)
        if m:
            _, params = _parse_arglist(m.group("args"), lineno, allow_operands=False)
            try:
                spec = generators.make_genspec(m.group("kind"), params)
            except InvariantError as exc:
                raise SpecError([Diagnostic(str(exc), m.group("id"), lineno)]) from None
            inputs.append(InputDecl(m.group("id"), lineno, spec.kind, genspec=spec))
            continue
        m = _RE_NODE.match(line)
        if m:
            operands, params = _parse_arglist(m.group("args"), lineno, allow_operands=True)
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
        raise SpecError([Diagnostic(f"syntax error: {line!r}", line=lineno)])

    if name is None:
        raise SpecError([Diagnostic('missing workload "<name>" line', line=1)])
    spec = WorkloadSpec(name, tuple(inputs), tuple(invocations), tuple(outputs))
    diags = validate_spec(spec)
    if diags:
        raise SpecError(diags)
    return spec


def parse_spec_file(path: str) -> WorkloadSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


# ---------------------------------------------------------------------------
# validation


def validate_spec(s: WorkloadSpec) -> list[Diagnostic]:
    """Empty list iff the spec satisfies every invariant; each diagnostic
    names the offending dataset id or motif and its line."""
    diags: list[Diagnostic] = []

    kinds: dict[str, str] = {}
    definers: dict[str, int] = {}  # dataset id -> defining position in statement order
    pos = 0
    for decl in s.inputs:
        if decl.dataset_id in definers:
            diags.append(
                Diagnostic(f"duplicate dataset id {decl.dataset_id!r}", decl.dataset_id, decl.line)
            )
            continue
        if decl.kind not in ALL_KINDS:
            diags.append(
                Diagnostic(f"unknown payload kind {decl.kind!r}", decl.dataset_id, decl.line)
            )
        definers[decl.dataset_id] = pos
        kinds[decl.dataset_id] = decl.kind
        pos += 1

    # Assign positions to invocation results so forward references are
    # distinguishable from plain unknowns: a forward reference is a cycle in
    # execution order.
    inv_pos: dict[str, int] = {}
    for inv in s.invocations:
        if inv.result_id in definers or inv.result_id in inv_pos:
            diags.append(
                Diagnostic(f"duplicate dataset id {inv.result_id!r}", inv.result_id, inv.line)
            )
        else:
            inv_pos[inv.result_id] = pos
        pos += 1

    for inv in s.invocations:
        if inv.motif not in REGISTRY:
            diags.append(Diagnostic(f"unknown motif {inv.motif!r}", inv.motif, inv.line))
            continue
        kspec = REGISTRY[inv.motif]
        ok = True
        operand_kinds: list[str] = []
        for op in inv.operands:
            if op in definers:
                operand_kinds.append(kinds.get(op, ""))
                continue
            if op in inv_pos:
                # Defined, but by this invocation or a later one: a back edge
                # in execution order.
                diags.append(
                    Diagnostic(
                        f"cycle detected: {inv.result_id!r} consumes {op!r}, "
                        "which is not defined earlier",
                        op,
                        inv.line,
                    )
                )
            else:
                diags.append(Diagnostic(f"undefined dataset id {op!r}", op, inv.line))
            ok = False
        if len(inv.operands) != kspec.arity:
            diags.append(
                Diagnostic(
                    f"{inv.motif} takes {kspec.arity} operand(s), got {len(inv.operands)}",
                    inv.motif,
                    inv.line,
                )
            )
            ok = False
        if ok:
            for op, op_kind, accepted in zip(inv.operands, operand_kinds, kspec.input_kinds):
                if op_kind and op_kind not in accepted:
                    diags.append(
                        Diagnostic(
                            f"{inv.motif} cannot take {op_kind} payload {op!r} "
                            f"(accepts {', '.join(sorted(accepted))})",
                            op,
                            inv.line,
                        )
                    )
                    ok = False
        try:
            kspec.coerce_params(inv.param_dict())
        except KernelError as exc:
            diags.append(Diagnostic(str(exc), inv.motif, inv.line))
            ok = False
        if ok and inv.result_id in inv_pos:
            same = kspec.output_kind == SAME_AS_INPUT
            kinds[inv.result_id] = operand_kinds[0] if same else kspec.output_kind
        # Results become visible to later invocations only now.
        if inv.result_id in inv_pos:
            definers[inv.result_id] = inv_pos[inv.result_id]

    writers: dict[str, int] = {}  # normalized output path -> first line writing it
    for out in s.outputs:
        if out.dataset_id not in definers:
            diags.append(
                Diagnostic(f"undefined dataset id {out.dataset_id!r}", out.dataset_id, out.line)
            )
        if not out.path:
            diags.append(Diagnostic("empty output path", out.dataset_id, out.line))
            continue
        key = os.path.normpath(out.path)
        if key in writers:
            diags.append(
                Diagnostic(
                    f"output path {out.path!r} is already written on line {writers[key]}",
                    out.dataset_id,
                    out.line,
                )
            )
        else:
            writers[key] = out.line
    return diags


# ---------------------------------------------------------------------------
# execution


def _resolve(path: str, base_dir: Optional[str]) -> str:
    if base_dir is not None and not os.path.isabs(path):
        return os.path.join(base_dir, path)
    return path


def _materialize_inputs(s: WorkloadSpec, base_dir: Optional[str]) -> dict[str, object]:
    env: dict[str, object] = {}
    for decl in s.inputs:
        if decl.genspec is not None:
            env[decl.dataset_id] = generators.materialize(decl.genspec, base_dir).payload
        else:
            ds = load_dataset(_resolve(decl.path, base_dir))
            if ds.kind != decl.kind:
                raise WorkloadRuntimeError(
                    f"input {decl.dataset_id!r}: file {decl.path!r} holds a {ds.kind} "
                    f"payload, declared {decl.kind}"
                )
            env[decl.dataset_id] = ds.payload
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
    write_outputs: bool = True,
) -> list[RunReport]:
    """Run the DAG `repeat` times; returns reports in repeat order.

    Kernels are pure and all randomness is seeded, so dataset results are
    bit-identical across repeats; outputs are written once, after the last
    repeat.
    """
    if repeat < 1:
        raise InvariantError(f"repeat must be >= 1, got {repeat}")
    diags = validate_spec(s)
    if diags:
        raise SpecError(diags)

    base_env = _materialize_inputs(s, base_dir)
    output_ids = {o.dataset_id for o in s.outputs}
    last_use: dict[str, int] = {}
    for idx, inv in enumerate(s.invocations):
        for op in inv.operands:
            last_use[op] = idx

    reports: list[RunReport] = []
    final_env: dict[str, object] = dict(base_env)
    for r in range(repeat):
        env = dict(base_env)
        records: list[InvocationRecord] = []
        for idx, inv in enumerate(s.invocations):
            ops = [env[o] for o in inv.operands]
            kspec = get_kernel(inv.motif)
            params = kspec.coerce_params(inv.param_dict())
            t0 = time.perf_counter_ns()
            try:
                result = kspec.fn(ops, params)
            except MotifBenchError as exc:
                raise WorkloadRuntimeError(
                    f"invocation {inv.result_id!r} ({inv.motif}) failed: {exc}"
                ) from exc
            wall_ns = time.perf_counter_ns() - t0
            in_bytes = sum(payload_size(o) for o in ops)
            records.append(
                InvocationRecord(inv.result_id, inv.motif, wall_ns, in_bytes, payload_size(result))
            )
            env[inv.result_id] = result
            for op in inv.operands:
                if last_use.get(op) == idx and op not in output_ids and op in env:
                    del env[op]
        total_ns = sum(rec.wall_ns for rec in records)
        checks = {oid: checksum_payload(env[oid]) for oid in sorted(output_ids) if oid in env}
        reports.append(
            RunReport(
                workload=s.name,
                repeat_index=r,
                invocations=tuple(records),
                total_ns=total_ns,
                family_fractions=family_fractions(records),
                output_checksums=checks,
            )
        )
        if r == repeat - 1:
            final_env = env

    if write_outputs:
        for out in s.outputs:
            path = out.path
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            try:
                save_dataset(Dataset(final_env[out.dataset_id], "derived"), path)
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
                "invocations": [
                    {
                        "id": rec.dataset_id,
                        "motif": rec.motif,
                        "wall_ns": rec.wall_ns,
                        "in_bytes": rec.in_bytes,
                        "out_bytes": rec.out_bytes,
                    }
                    for rec in rep.invocations
                ],
                "total_ns": rep.total_ns,
                "family_fractions": rep.family_fractions,
                "output_checksums": {k: f"{v:016x}" for k, v in rep.output_checksums.items()},
            }
            for rep in reports
        ],
        "family_fractions": family_fractions([rec for rep in reports for rec in rep.invocations]),
    }
    if counters is not None:
        doc["counters"] = counters
    return doc
