"""The size cap: the one gate of every size bound of the engine.

``check_cap`` compares a count with the cap read from the ``QZ_CAP``
environment variable (default ``DEFAULT_CAP``); there is no per-call cap.
It sits below every module that builds something large, so a bound is
checked where the work happens, before the next step makes it larger.
"""

from __future__ import annotations

import os


class ComponentTooLarge(RuntimeError):
    """The exact work would exceed the configured size cap."""


class InvalidCap(ValueError):
    """QZ_CAP is not a positive integer."""


DEFAULT_CAP = 100_000


def dimension_cap() -> int:
    """The size cap: QZ_CAP when set, else DEFAULT_CAP."""
    raw = os.environ.get("QZ_CAP")
    if raw is None:
        return DEFAULT_CAP
    if not raw.isdecimal() or int(raw) < 1:
        raise InvalidCap(f"QZ_CAP must be a positive integer, not {raw!r}")
    return int(raw)


def check_cap(count: int, what: str) -> None:
    """Raise ComponentTooLarge when count (of what) exceeds the size cap."""
    limit = dimension_cap()
    if count > limit:
        raise ComponentTooLarge(f"{count} {what} exceed the cap {limit}")
