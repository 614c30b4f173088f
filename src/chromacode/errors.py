"""Shared error types and guard handling.

Instance-size guards keep the exhaustive algorithms at desk scale.  Every
guarded operation takes an explicit ``guard`` argument; when it is None the
CHROMACODE_GUARD environment variable is consulted, then the built-in default.
``resolve_guard(guard, DEFAULT_GUARD)`` reads the environment once for a run of
guarded calls: it returns ``DEFAULT_GUARD`` when the variable is unset, and
each call then takes its own default.
"""

import json
import os

GUARD_ENV = "CHROMACODE_GUARD"


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


DEFAULT_GUARD = object()  # a guard argument: the operation's own default, environment unread


def resolve_guard(guard, default):
    """Pick the effective guard: explicit arg > environment > default."""
    if guard is DEFAULT_GUARD:
        return default
    if guard is not None:
        return guard
    env = os.environ.get(GUARD_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{GUARD_ENV}={env!r} is not an integer") from None
    return default


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
