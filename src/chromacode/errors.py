"""Shared error types and guard handling.

Instance-size guards keep the exhaustive algorithms at desk scale.  Every
guarded operation takes an explicit ``guard`` argument; when it is None the
CHROMACODE_GUARD environment variable is consulted, then the built-in default.
"""

import json
import os

GUARD_ENV = "CHROMACODE_GUARD"


class ChromacodeError(Exception):
    """Base class for all library errors."""


class GuardExceeded(ChromacodeError):
    """Instance too large for an exhaustive/guarded operation."""

    def __init__(self, what, size, limit):
        super().__init__(f"instance too large: {what} = {size} exceeds guard {limit}")
        self.what = what
        self.size = size
        self.limit = limit


class UsageError(ChromacodeError):
    """Invalid arguments or malformed input."""


def resolve_guard(guard, default):
    """Pick the effective guard: explicit arg > environment > default."""
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
