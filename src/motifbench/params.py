"""Parameter schemas shared by the kernel registry and the generators, and
the linkage names that similarity.hcluster takes.

A schema maps each parameter name to a ParamSpec. coerce() checks raw
key=value parameters, as parsed from a workload spec or CLI flags, against a
schema and fills in defaults. It raises the caller's error type, so kernel
errors stay KernelError and generator errors stay InvariantError.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional


class ParamSpec(NamedTuple):
    kind: str  # int | float | str
    required: bool = False
    default: object = None
    choices: Optional[tuple] = None
    lo: Optional[float] = None  # closed bounds on a given int or float value
    hi: Optional[float] = None


# Closed bounds that state open ones on a float: v > 0.0 holds exactly when
# v >= ABOVE_ZERO, and v < 1.0 exactly when v <= BELOW_ONE.
ABOVE_ZERO = math.nextafter(0.0, 1.0)
BELOW_ONE = math.nextafter(1.0, 0.0)

# Seeds become SplitMix64's 64-bit state; a value outside [0, 2**64) would
# silently alias another seed.
SEED = ParamSpec("int", default=0, lo=0, hi=2**64 - 1)

# cluster's --linkage choices, stated here because the CLI parser, built by
# every command, needs them without loading similarity.
LINKAGES = ("average", "single", "complete")


def coerce(schema: dict[str, ParamSpec], raw: dict, where: str, error: type) -> dict:
    """Validate names, types, choices and ranges of `raw` against `schema`
    and fill defaults; raises `error` with a message prefixed by `where`."""
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise error(f"{where}: unknown parameter {key!r}")
        out[key] = _coerce_value(schema[key], value, f"{where}: parameter {key!r}", error)
    for key, spec in schema.items():
        if key in out:
            continue
        if spec.required:
            raise error(f"{where}: missing required parameter {key!r}")
        out[key] = spec.default
    return out


def _coerce_value(spec: ParamSpec, value, what: str, error: type):
    if spec.kind == "int":
        # Floats and bools are rejected rather than truncated.
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise error(f"{what} must be an integer, got {value!r}")
        try:
            value = int(value)
        except ValueError:
            raise error(f"{what} must be an integer, got {value!r}") from None
    elif spec.kind == "float":
        if isinstance(value, bool):
            raise error(f"{what} must be a number, got {value!r}")
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise error(f"{what} must be a number, got {value!r}") from None
        if not math.isfinite(value):  # NaN would pass every range check below
            raise error(f"{what} must be finite, got {value!r}")
    else:
        value = str(value)
    if spec.choices is not None and value not in spec.choices:
        raise error(f"{what} must be one of {', '.join(spec.choices)}, got {value!r}")
    if spec.lo is not None and value < spec.lo:
        raise error(f"{what}={value} out of range, must be >= {spec.lo}")
    if spec.hi is not None and value > spec.hi:
        raise error(f"{what}={value} out of range, must be <= {spec.hi}")
    return value
