"""Shared parameter grid and the estimation-problem data model.

All bounds and estimators consume an EstimationProblem: a prior density and
the effective (n-fold) QFI n * J(x), both sampled on one uniform grid. The
estimand is the parameter x itself. Types are frozen dataclasses and safe
to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import composite_simpson

__all__ = [
    "DEFAULT_GRID_M",
    "ParameterGrid",
    "GridFunction",
    "PriorDensity",
    "EstimationProblem",
    "make_uniform_prior",
]

# One grid serves both Simpson quadrature and the flux-form bias solve;
# 4001 odd nodes keep both errors well under the acceptance tolerances.
DEFAULT_GRID_M = 4001

_PRIOR_NORM_TOL = 1e-10


@dataclass(frozen=True)
class ParameterGrid:
    """Uniform grid of m nodes on the closed interval [a1, a2]."""

    a1: float
    a2: float
    m: int

    def __post_init__(self) -> None:
        if not (self.a2 > self.a1 and np.isfinite(self.a2 - self.a1)):
            raise DomainError(f"need finite a2 > a1, got ({self.a1}, {self.a2})")
        if self.m < 3 or self.m % 2 == 0:
            raise DomainError(f"need odd m >= 3 (Simpson panels), got m={self.m}")

    @property
    def h(self) -> float:
        return (self.a2 - self.a1) / (self.m - 1)

    def nodes(self) -> np.ndarray:
        return self.a1 + self.h * np.arange(self.m)


def _as_readonly(values, m: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != m:
        raise DomainError(f"expected {m} samples, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued samples of a function of the parameter on a uniform grid."""

    grid: ParameterGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_readonly(self.values, self.grid.m))

    def derivative(self) -> "GridFunction":
        """Fourth-order finite-difference derivative; needs at least 5 nodes.

        Five-point central stencil on the interior, one-sided/offset five-point
        stencils at the two nodes nearest each endpoint. A bound functional
        built from a second-order derivative would be limited to ~1e-6
        relative accuracy at the default grid; fourth order pushes the
        stencil error far below the BVP discretization error.
        """
        v, h = self.values, self.grid.h
        if self.grid.m < 5:
            raise DomainError(
                f"the five-point derivative needs m >= 5, got m={self.grid.m}")
        d = np.empty_like(v)
        d[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
        d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12.0 * h)
        d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12.0 * h)
        d[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12.0 * h)
        d[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12.0 * h)
        return GridFunction(self.grid, d)


@dataclass(frozen=True)
class PriorDensity:
    """Prior density p(x) on its support; normalized under Simpson."""

    samples: GridFunction

    def __post_init__(self) -> None:
        v = self.samples.values
        # written so that nan samples and a nan total fail the test
        if not (v.min() >= 0.0 and v.max() < np.inf):
            raise DomainError("prior density has negative or non-finite samples")
        total = float(composite_simpson(v, self.samples.grid.h))
        if not abs(total - 1.0) <= _PRIOR_NORM_TOL:
            raise DomainError(f"prior integrates to {total!r}, not 1")

    @property
    def grid(self) -> ParameterGrid:
        return self.samples.grid


@dataclass(frozen=True)
class EstimationProblem:
    """Prior and effective (n-fold) QFI n * J(x) sharing one grid."""

    prior: PriorDensity
    qfi: GridFunction

    def __post_init__(self) -> None:
        if self.qfi.grid != self.prior.grid:
            raise DomainError("prior and QFI must share one grid")
        v = self.qfi.values
        if not (v.min() > 0.0 and v.max() < np.inf):
            raise DomainError("QFI must be finite and strictly positive on the grid")

    @property
    def grid(self) -> ParameterGrid:
        return self.prior.grid


def make_uniform_prior(a1: float, a2: float, m: int) -> PriorDensity:
    """Uniform prior 1/(a2-a1) on (a1, a2); Simpson-exact normalization."""
    grid = ParameterGrid(a1, a2, m)
    density = 1.0 / (a2 - a1)
    return PriorDensity(GridFunction(grid, np.full(m, density)))

