"""Exception hierarchy shared across the package.

User-facing input problems raise :class:`ConfigError`, or a plain ``ValueError``
naming the argument for bad function arguments; :func:`_integer` and
:func:`_positive` are the two scalar argument rules.  Failures of internal
mathematical contracts, which indicate an implementation bug rather than a
physics outcome, raise :class:`InvariantViolation`.  Numerical breakdowns of
otherwise-valid inputs (for example an eigensolver that does not converge)
raise :class:`NumericsError`.
"""

from __future__ import annotations

import math
import numbers

__all__ = ["LgqfiError", "ConfigError", "NumericsError", "InvariantViolation"]


class LgqfiError(Exception):
    """Base class for package-specific errors."""


class ConfigError(LgqfiError):
    """A run configuration or CLI input is invalid."""


class NumericsError(LgqfiError):
    """A numerical routine failed on otherwise admissible input."""


class InvariantViolation(LgqfiError):
    """An internal mathematical invariant was violated (implementation bug)."""


def _integer(value: object, what: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``value`` as an int: an int or NumPy integer, not a bool, in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if not lo <= value <= hi:
        bounds = f"be at least {lo}" if hi == math.inf else f"lie in [{lo}, {hi}]"
        raise ValueError(f"{what} must {bounds}, got {value}")
    return value


def _positive(value: object, what: str) -> float:
    """``value`` as a float above 0; inf passes, NaN fails."""
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{what} must be positive, got {value}")
    return value
