"""Shared parameter grid and the estimation-problem data model.

All bounds and estimators consume an EstimationProblem: a prior density,
the effective (n-fold) QFI n * J(x) and the single-shot J(x), sampled on one
uniform grid. The estimand is the parameter x itself. Types are frozen
dataclasses and safe to share across threads; the arrays they derive from
their fields are made once per object, kept on it and read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .numerics import _dot, simpson_weights

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
        object.__setattr__(self, "_nodes", _readonly(self.a1 + self.h * np.arange(self.m)))

    @property
    def h(self) -> float:
        return (self.a2 - self.a1) / (self.m - 1)

    def nodes(self) -> np.ndarray:
        return self._nodes

    @cached_property
    def spacings(self) -> np.ndarray:
        """The node differences: they carry the nodes' rounding, which h does not."""
        return _readonly(np.diff(self._nodes))

    @cached_property
    def simpson_weights(self) -> np.ndarray:
        return _readonly(simpson_weights(self.m, self.h))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_readonly(values, m: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != m:
        raise DomainError(f"expected {m} samples, got shape {arr.shape}")
    return _readonly(arr)


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
        total = float(_dot(v, self.grid.simpson_weights))
        if not abs(total - 1.0) <= _PRIOR_NORM_TOL:
            raise DomainError(f"prior integrates to {total!r}, not 1")

    @property
    def grid(self) -> ParameterGrid:
        return self.samples.grid


@dataclass(frozen=True)
class EstimationProblem:
    """Prior and effective (n-fold) QFI n * J(x) sharing one grid, and J(x) if known."""

    prior: PriorDensity
    qfi: GridFunction
    single_shot_qfi: GridFunction | None = None

    @classmethod
    def n_fold(cls, prior: PriorDensity, j: GridFunction, n: int) -> "EstimationProblem":
        """The problem of n repetitions of single-shot QFI j: qfi = n * j."""
        # an n * J past the double range is inf, which __post_init__ rejects;
        # 1 * J is J to the bit, so n = 1 shares j's samples
        with np.errstate(over="ignore"):
            return cls(prior, j if n == 1 else GridFunction(j.grid, n * j.values), j)

    def __post_init__(self) -> None:
        if self.qfi.grid != self.prior.grid:
            raise DomainError("prior and QFI must share one grid")
        v = self.qfi.values
        # a subnormal n J has lost precision, and 1/(n J) overflows
        if not (v.min() >= 2.0**-1022 and v.max() < np.inf):
            raise DomainError("QFI must be finite and strictly positive on the grid, "
                              "at least the smallest normal double 2^-1022")

    @property
    def grid(self) -> ParameterGrid:
        return self.prior.grid

    @cached_property
    def mass(self) -> np.ndarray:
        """Cell width times p at the nodes: h, or h/2 at the two end nodes."""
        mass = self.grid.h * self.prior.samples.values
        mass[[0, -1]] /= 2.0
        return _readonly(mass)

    @cached_property
    def q(self) -> np.ndarray:
        """The mean of the two nodal values of J/p at each cell midpoint."""
        ratio = self.qfi.values / self.prior.samples.values
        return _readonly(0.5 * (ratio[:-1] + ratio[1:]))


def make_uniform_prior(a1: float, a2: float, m: int) -> PriorDensity:
    """Uniform prior 1/(a2-a1) on (a1, a2); Simpson-exact normalization."""
    grid = ParameterGrid(a1, a2, m)
    density = 1.0 / (a2 - a1)
    return PriorDensity(GridFunction(grid, np.full(m, density)))

