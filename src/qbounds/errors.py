"""Exception hierarchy for qbounds.

Every failure mode raised by the library derives from QboundsError so callers
can catch one base class at API boundaries (the CLI maps subclasses to exit
codes).
"""

__all__ = ["QboundsError", "DomainError", "SingularSystem", "ConfigError", "InvariantViolation"]


class QboundsError(Exception):
    """Base class for all qbounds errors."""


class DomainError(QboundsError):
    """Input outside its domain: a bad grid, support, prior, QFI or scalar."""


class SingularSystem(QboundsError):
    """The discretized BVP cannot be solved: a vanishing pivot, or 1/h^2 overflows."""


class ConfigError(QboundsError):
    """CLI / run configuration is invalid, or asks an example for what it lacks."""


class InvariantViolation(QboundsError):
    """A self-check on emitted output failed (bound ordering broken)."""
