"""Shared parameter grid and the estimation-problem data model.

All bounds and estimators consume an EstimationProblem: a prior density, a
target function with analytic derivatives, and a (possibly x-dependent) QFI
profile, all sampled on one uniform grid. Types are frozen dataclasses and
safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    InvalidGrid,
    InvalidSupport,
    NonPositiveQfi,
    UnnormalizedPrior,
)
from .numerics import composite_simpson

__all__ = [
    "DEFAULT_GRID_M",
    "ParameterGrid",
    "GridFunction",
    "PriorDensity",
    "TargetFunction",
    "QfiProfile",
    "EstimationProblem",
    "make_uniform_prior",
]

# One grid serves both Simpson quadrature and the second-order BVP; 4001
# odd nodes keep both errors well under the acceptance tolerances.
DEFAULT_GRID_M = 4001

_PRIOR_NORM_TOL = 1e-10


@dataclass(frozen=True)
class ParameterGrid:
    """Uniform grid of m nodes on the closed interval [a1, a2]."""

    a1: float
    a2: float
    m: int

    def __post_init__(self) -> None:
        if not self.a2 > self.a1:
            raise InvalidSupport(f"need a2 > a1, got ({self.a1}, {self.a2})")
        if self.m < 3 or self.m % 2 == 0:
            raise InvalidGrid(f"need odd m >= 3 (Simpson panels), got m={self.m}")

    @property
    def h(self) -> float:
        return (self.a2 - self.a1) / (self.m - 1)

    def nodes(self) -> np.ndarray:
        return self.a1 + self.h * np.arange(self.m)


def _as_readonly(values, m: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != m:
        raise GridMismatch(f"expected {m} samples, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued samples of a function of the parameter on a uniform grid."""

    grid: ParameterGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_readonly(self.values, self.grid.m))

    @classmethod
    def from_callable(cls, grid: ParameterGrid, fn) -> "GridFunction":
        return cls(grid, fn(grid.nodes()))

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
            raise InvalidGrid(
                f"the five-point derivative needs m >= 5, got m={self.grid.m}")
        d = np.empty_like(v)
        d[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
        d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12.0 * h)
        d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12.0 * h)
        d[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12.0 * h)
        d[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12.0 * h)
        return GridFunction(self.grid, d)


def _same_grid(*fns: GridFunction) -> ParameterGrid:
    grid = fns[0].grid
    for f in fns[1:]:
        if f.grid != grid:
            raise GridMismatch(f"grids differ: {f.grid} vs {grid}")
    return grid


@dataclass(frozen=True)
class PriorDensity:
    """Prior density p(x) on its support; normalized under Simpson."""

    samples: GridFunction

    def __post_init__(self) -> None:
        v = self.samples.values
        if v.min() < 0.0:
            raise UnnormalizedPrior("prior density has negative samples")
        total = composite_simpson(v, self.samples.grid.h)
        if abs(total - 1.0) > _PRIOR_NORM_TOL:
            raise UnnormalizedPrior(f"prior integrates to {total!r}, not 1")

    @property
    def grid(self) -> ParameterGrid:
        return self.samples.grid


@dataclass(frozen=True)
class TargetFunction:
    """Target f(x) with analytic first and second derivatives."""

    f: GridFunction
    f_prime: GridFunction
    f_double_prime: GridFunction

    def __post_init__(self) -> None:
        _same_grid(self.f, self.f_prime, self.f_double_prime)

    @classmethod
    def identity(cls, grid: ParameterGrid) -> "TargetFunction":
        """f(x) = x with exact derivatives."""
        return cls(
            GridFunction(grid, grid.nodes()),
            GridFunction(grid, np.ones(grid.m)),
            GridFunction(grid, np.zeros(grid.m)),
        )

    @classmethod
    def from_samples(cls, f: GridFunction) -> "TargetFunction":
        """Finite-difference derivatives for user-supplied targets."""
        fp = f.derivative()
        return cls(f, fp, fp.derivative())

    @property
    def grid(self) -> ParameterGrid:
        return self.f.grid


@dataclass(frozen=True)
class QfiProfile:
    """Single-shot QFI J(x) with its derivative and a repetition count.

    The effective information for n repeated measurements is n * J(x).
    """

    j_base: GridFunction
    j_prime: GridFunction
    repetitions: int = 1

    def __post_init__(self) -> None:
        _same_grid(self.j_base, self.j_prime)
        if self.repetitions < 1:
            raise NonPositiveQfi(f"repetitions must be >= 1, got {self.repetitions}")
        if self.j_base.values.min() <= 0.0:
            raise NonPositiveQfi("QFI must be strictly positive on the grid")

    @classmethod
    def constant(cls, grid: ParameterGrid, j: float, repetitions: int = 1) -> "QfiProfile":
        if j <= 0.0:
            raise NonPositiveQfi(f"constant QFI must be positive, got {j}")
        return cls(
            GridFunction(grid, np.full(grid.m, float(j))),
            GridFunction(grid, np.zeros(grid.m)),
            repetitions,
        )

    @property
    def grid(self) -> ParameterGrid:
        return self.j_base.grid

    def effective(self) -> np.ndarray:
        """n * J(x) samples."""
        return self.repetitions * self.j_base.values


@dataclass(frozen=True)
class EstimationProblem:
    """Bundle of prior, target, and QFI sharing one grid."""

    prior: PriorDensity
    target: TargetFunction
    qfi: QfiProfile

    def __post_init__(self) -> None:
        grid = self.prior.grid
        if self.target.grid != grid or self.qfi.grid != grid:
            raise GridMismatch("prior, target, and QFI must share one grid")

    @property
    def grid(self) -> ParameterGrid:
        return self.prior.grid

    def prior_log_slope(self) -> np.ndarray:
        """p'(x)/p(x): zero for a uniform prior, else by finite differences.

        Interior nodes only carry the ODE, so the boundary kink of the
        uniform prior never enters.
        """
        p = self.prior.samples.values
        if np.ptp(p) == 0.0:
            return np.zeros(self.grid.m)
        return self.prior.samples.derivative().values / p


def make_uniform_prior(a1: float, a2: float, m: int) -> PriorDensity:
    """Uniform prior 1/(a2-a1) on (a1, a2); Simpson-exact normalization."""
    grid = ParameterGrid(a1, a2, m)
    density = 1.0 / (a2 - a1)
    return PriorDensity(GridFunction(grid, np.full(m, density)))

