"""Exception hierarchy shared across the package.

User-facing input problems raise :class:`ConfigError` (or plain ``ValueError``
for bad function arguments).  Failures of internal mathematical contracts,
which indicate an implementation bug rather than a physics outcome, raise
:class:`InvariantViolation`.  Numerical breakdowns of otherwise-valid inputs
(for example an eigensolver that does not converge) raise
:class:`NumericsError`.
"""

from __future__ import annotations

__all__ = ["LgqfiError", "ConfigError", "NumericsError", "InvariantViolation"]


class LgqfiError(Exception):
    """Base class for package-specific errors."""


class ConfigError(LgqfiError):
    """A run configuration or CLI input is invalid."""


class NumericsError(LgqfiError):
    """A numerical routine failed on otherwise admissible input."""


class InvariantViolation(LgqfiError):
    """An internal mathematical invariant was violated (implementation bug)."""
