"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract: usage problems exit 2,
workload-spec validation failures exit 3, everything else that goes wrong
at runtime exits 1.
"""

from __future__ import annotations


class MotifBenchError(Exception):
    """Base class for all toolkit errors.

    A content error names where it is: the file `path`, as `path: `, and its
    `line` there, as `path:line: `, ahead of the message; `message` keeps the
    text without them. `index` is the position of the refused value in the
    sequence the message names; a loader maps it to the line that holds it.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None,
                 index: int | None = None):
        self.message, self.path, self.line, self.index = message, path, line, index
        if path is not None:
            message = f"{path}: {message}" if line is None else f"{path}:{line}: {message}"
        super().__init__(message)


class InvariantError(MotifBenchError, ValueError):
    """A constructor or generator was handed invariant-violating input."""


class FormatError(MotifBenchError):
    """A data file could not be read or parsed."""


class KernelError(MotifBenchError, ValueError):
    """A motif kernel rejected its operands or parameters."""


class SpecError(MotifBenchError):
    """A workload spec is syntactically or semantically invalid.

    `diagnostics` lists every problem found, each a SpecError located at its
    line, so callers can report all of them; a single problem lists itself.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None,
                 diagnostics=()):
        super().__init__(message, path, line)
        self.diagnostics = list(diagnostics) or [self]


class EventError(MotifBenchError):
    """An event sample is unusable for the requested analysis."""


class MissingEventsError(EventError):
    """Tree formulas reference events absent from the sample."""

    def __init__(self, names):
        self.names = sorted(names)
        super().__init__("missing events: " + ", ".join(self.names))


class FormulaError(MotifBenchError):
    """A metric formula failed to parse or evaluate."""
