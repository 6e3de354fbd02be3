"""Shared bits: the infinite-label sentinel, the brute-force guard, text
line parsing, output formatting."""
from __future__ import annotations

import math
import os
from fractions import Fraction

from .errors import InstanceTooLarge

#: Distinguished label-count value for totally ordered (rank) labelings.
INFINITE = math.inf

#: Environment variable overriding the brute-force guards (see README).
BRUTE_CAP_ENV = "CQLAB_BRUTE_CAP"


def is_infinite(ell) -> bool:
    return ell == INFINITE


def validate_ell(ell, minimum: int = 1):
    """Return ell as int or INFINITE; reject anything below `minimum`."""
    if is_infinite(ell):
        return INFINITE
    if isinstance(ell, bool) or not isinstance(ell, int):
        raise ValueError(f"number of labels must be an integer or INFINITE, got {ell!r}")
    if ell < minimum:
        raise ValueError(f"number of labels must be >= {minimum}, got {ell}")
    return ell


def parse_ell(text: str):
    """Parse a CLI label-count token: an integer, or inf/infinity/oo."""
    t = text.strip().lower()
    if t in ("inf", "infinity", "infinite", "oo"):
        return INFINITE
    return int(t)


def int_fields(line: str, count: int, what: str) -> list[int]:
    """The `count` integers of one input line; any other line raises
    ValueError("bad <what> line '...'")."""
    try:
        values = [int(t) for t in line.split()]
    except ValueError:
        values = []
    if len(values) != count:
        raise ValueError(f"bad {what} line {line!r}")
    return values


def ell_text(ell) -> str:
    return "inf" if is_infinite(ell) else str(int(ell))


def check_brute_cap(size: int, default: int, what: str) -> None:
    """The brute-force guard: raise InstanceTooLarge when `size` exceeds the
    cap, which is `default` unless CQLAB_BRUTE_CAP overrides it. `what`
    describes the size in the message."""
    raw = os.environ.get(BRUTE_CAP_ENV)
    try:
        limit = default if raw is None else int(raw)
    except ValueError as exc:
        raise ValueError(f"{BRUTE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if size > limit:
        raise InstanceTooLarge(
            f"instance too large: {what}, above the brute-force cap {limit} "
            f"(override with {BRUTE_CAP_ENV})"
        )


def as_fraction(value) -> Fraction:
    """Exact conversion for rational-arithmetic entry points.

    Accepts Fraction, int, str like "1/8", and float (converted exactly,
    so 0.125 means 1/8 but 0.1 means the binary float 0.1).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def fmt_float(x: float) -> str:
    """Fixed 9-decimal formatting used for all floating CLI/CSV output."""
    return f"{x:.9f}"
