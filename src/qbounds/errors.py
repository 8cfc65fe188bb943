"""Exception hierarchy for qbounds.

Every failure mode raised by the library derives from QboundsError so callers
can catch one base class at API boundaries (the CLI maps subclasses to exit
codes).
"""


class QboundsError(Exception):
    """Base class for all qbounds errors."""


class InvalidGrid(QboundsError):
    """Grid has an even node count, too few nodes, or inconsistent spacing."""


class InvalidSupport(QboundsError):
    """Support interval is empty or reversed (a2 <= a1)."""


class GridMismatch(QboundsError):
    """Two grid functions that must share a grid do not."""


class UnnormalizedPrior(QboundsError):
    """Prior density does not integrate to 1 (or has negative samples)."""


class NonPositiveQfi(QboundsError):
    """QFI profile is not strictly positive on the grid."""


class DomainError(QboundsError):
    """Scalar argument outside its mathematical domain."""


class SingularSystem(QboundsError):
    """The discretized BVP cannot be solved: a vanishing pivot, or 1/h^2 overflows."""


class ConfigError(QboundsError):
    """CLI / run configuration is invalid."""


class UnsupportedExample(QboundsError):
    """Requested operation is undefined for the chosen example model."""


class InvariantViolation(QboundsError):
    """A self-check on emitted output failed (bound ordering broken)."""
