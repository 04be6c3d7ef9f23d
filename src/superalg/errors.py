"""Exception hierarchy shared across the package, and how errors show values."""

from __future__ import annotations


SHOWN_LENGTH = 40


def shown(value: object) -> str:
    """value's repr for an error line, or only its length when that is over
    SHOWN_LENGTH."""
    text = str(value)
    return repr(value) if len(text) <= SHOWN_LENGTH else f"a {len(text)}-character value"


class SuperalgError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SuperalgError):
    """Malformed or out-of-domain input (bad SDF, bad parameter, bad flag)."""


class NotNilpotentError(SuperalgError):
    """An operation requiring nilpotency was applied to a non-nilpotent algebra."""


class DegenerateSamplingError(SuperalgError):
    """Characteristic-sequence sampling found no admissible even basis vector."""


class UnsupportedShapeError(SuperalgError):
    """A computation is only implemented for a restricted matrix shape."""


class InternalInconsistencyError(SuperalgError):
    """Two independent computations of the same quantity disagreed."""
