"""Shared error types and guard handling.

Instance-size guards keep the exhaustive algorithms at desk scale.  Every
guarded operation takes a ``guard`` argument, which the CLI fills from
``--guard``; when it is None the operation takes its own default.  Nothing here
reads the environment, so a limit is set by the caller's arguments alone.
"""

import json


class ChromacodeError(Exception):
    """Base class for all library errors."""


def _printable(x):
    """x, or for an int too long to print (Python caps int-to-str at 4 300
    digits) a string giving the power of two it reaches."""
    if isinstance(x, int) and x.bit_length() > 14_000:  # < 4 215 digits below
        return f"at least 2**{x.bit_length() - 1}"
    return x


class GuardExceeded(ChromacodeError):
    """Instance too large for an exhaustive/guarded operation."""

    def __init__(self, what, size, limit):
        size, limit = _printable(size), _printable(limit)
        super().__init__(f"instance too large: {what} = {size} exceeds guard {limit}")
        self.what = what
        self.size = size
        self.limit = limit


class UsageError(ChromacodeError):
    """Invalid arguments or malformed input."""


def resolve_guard(guard, default):
    """The effective guard: `guard`, or `default` when it is None."""
    return default if guard is None else guard


def load_json(text, what):
    """json.loads that reports malformed text as a UsageError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed {what} JSON: {exc}") from exc


def check_guard(what, size, guard, default):
    limit = resolve_guard(guard, default)
    if size > limit:
        raise GuardExceeded(what, size, limit)
    return limit
