"""Built-in physical examples.

Four systems, each supplying a closed-form single-shot QFI and (except the
interferometer) a binary measurement law:

* NOON state of N particles: J = N^2, p1(x) = sin^2(Nx/2).
* Dephasing qubit with decay rate gamma (eta = exp(-gamma)): J = eta^2,
  p1(x) = (1 - eta cos x)/2.
* SU(2) interferometer fed by a coherent state and an even cat state:
  J = 2 nA nB + nA + nB + 2 nA |alpha|^2 with |alpha|^2 recovered from
  nB = |alpha|^2 tanh |alpha|^2. Bounds only: no closed-form outcome law.
* Qubit in an in-plane magnetic field of magnitude B:
  J(x) = 4 sin^2(B/2) [1 - cos^2(B/2) sin^2 x], p1(x) = sin^2(B/2) sin^2 x.

Evolution time is fixed to 1 throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .core import (
    EstimationProblem,
    GridFunction,
    ParameterGrid,
    QfiProfile,
    TargetFunction,
    make_uniform_prior,
)
from .errors import DomainError
from .estimation import BinaryMeasurementModel

__all__ = [
    "NoonParams",
    "DephasingParams",
    "InterferometerParams",
    "FieldParams",
    "noon_model",
    "dephasing_model",
    "interferometer_qfi",
    "interferometer_problem",
    "field_model",
]


@dataclass(frozen=True)
class NoonParams:
    """N-particle NOON state."""

    N: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise DomainError(f"particle number must be >= 1, got {self.N}")


@dataclass(frozen=True)
class DephasingParams:
    """Dephasing qubit; eta = exp(-gamma) is derived from the decay rate."""

    gamma: float
    eta: float = field(init=False)

    def __post_init__(self) -> None:
        if self.gamma < 0.0:
            raise DomainError(f"decay rate must be >= 0, got {self.gamma}")
        object.__setattr__(self, "eta", math.exp(-self.gamma))

    @classmethod
    def from_eta(cls, eta: float) -> "DephasingParams":
        if not 0.0 < eta <= 1.0:
            raise DomainError(f"eta must lie in (0, 1], got {eta}")
        return cls(-math.log(eta))


@dataclass(frozen=True)
class InterferometerParams:
    """SU(2) interferometer photon numbers; |alpha|^2 solved from n_b."""

    n_a: float
    n_b: float
    alpha_sq: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n_a < 0.0 or self.n_b < 0.0:
            raise DomainError("photon numbers must be nonnegative")
        object.__setattr__(self, "alpha_sq", _solve_alpha_sq(self.n_b))


@dataclass(frozen=True)
class FieldParams:
    """Magnetic field magnitude B (phase accumulated at unit time)."""

    B: float

    def __post_init__(self) -> None:
        if math.sin(self.B / 2.0) == 0.0:
            raise DomainError("sin(B/2) = 0 makes the QFI vanish identically")


def _uniform_problem(
    prior_support: tuple[float, float],
    m: int,
    qfi: QfiProfile,
) -> EstimationProblem:
    a1, a2 = prior_support
    prior = make_uniform_prior(a1, a2, m)
    target = TargetFunction.identity(prior.grid)
    return EstimationProblem(prior, target, qfi)


def noon_model(
    params: NoonParams,
    prior_support: tuple[float, float],
    m: int,
    n: int = 1,
) -> tuple[EstimationProblem, BinaryMeasurementModel]:
    """NOON-state phase estimation: constant QFI N^2, p1 = sin^2(Nx/2)."""
    grid = ParameterGrid(prior_support[0], prior_support[1], m)
    qfi = QfiProfile.constant(grid, float(params.N) ** 2, n)
    problem = _uniform_problem(prior_support, m, qfi)
    p1 = np.sin(params.N * grid.nodes() / 2.0) ** 2
    model = BinaryMeasurementModel(GridFunction(grid, p1))
    return problem, model


def dephasing_model(
    params: DephasingParams,
    prior_support: tuple[float, float],
    m: int,
    n: int = 1,
) -> tuple[EstimationProblem, BinaryMeasurementModel]:
    """Dephasing qubit: constant QFI eta^2, p1 = (1 - eta cos x)/2."""
    eta = params.eta
    if eta <= 0.0:
        raise DomainError(f"eta must be positive, got {eta}")
    grid = ParameterGrid(prior_support[0], prior_support[1], m)
    qfi = QfiProfile.constant(grid, eta**2, n)
    problem = _uniform_problem(prior_support, m, qfi)
    p1 = (1.0 - eta * np.cos(grid.nodes())) / 2.0
    model = BinaryMeasurementModel(GridFunction(grid, p1))
    return problem, model


def _solve_alpha_sq(n_b: float) -> float:
    """Solve u tanh(u) = n_b for u = |alpha|^2 >= 0.

    u tanh u is strictly increasing from 0 and u tanh u > u - 0.1 at
    u = n_b + 2 >= 2, so [0, n_b + 2] brackets the root for n_b >= 0.
    """
    if n_b == 0.0:
        return 0.0
    return float(brentq(lambda u: u * math.tanh(u) - n_b, 0.0, n_b + 2.0,
                        xtol=1e-12, rtol=8.881784197001252e-16))


def interferometer_qfi(params: InterferometerParams) -> float:
    """QFI of the coherent-plus-cat SU(2) interferometer input."""
    return (
        2.0 * params.n_a * params.n_b
        + params.n_a
        + params.n_b
        + 2.0 * params.n_a * params.alpha_sq
    )


def interferometer_problem(
    params: InterferometerParams,
    prior_support: tuple[float, float],
    m: int,
    n: int = 1,
) -> EstimationProblem:
    """Constant-QFI problem for the interferometer; bounds only.

    No measurement model is attached: the outcome law of a |11> projection
    has no closed form here, so only the bound pipeline applies.
    """
    grid = ParameterGrid(prior_support[0], prior_support[1], m)
    j = interferometer_qfi(params)
    if j <= 0.0:
        raise DomainError("interferometer QFI vanishes for these photon numbers")
    return _uniform_problem(prior_support, m, QfiProfile.constant(grid, j, n))


def field_model(
    params: FieldParams,
    prior_support: tuple[float, float],
    m: int,
    n: int = 1,
) -> tuple[EstimationProblem, BinaryMeasurementModel]:
    """Qubit in an XZ-plane field: x-dependent QFI.

    J(x) = 4 s^2 (1 - c^2 sin^2 x) with s = sin(B/2), c = cos(B/2); its
    analytic derivative J'(x) = -4 s^2 c^2 sin(2x) feeds the BVP
    coefficients. p1(x) = s^2 sin^2 x.
    """
    grid = ParameterGrid(prior_support[0], prior_support[1], m)
    x = grid.nodes()
    s2 = math.sin(params.B / 2.0) ** 2
    c2 = math.cos(params.B / 2.0) ** 2
    j = 4.0 * s2 * (1.0 - c2 * np.sin(x) ** 2)
    j_prime = -4.0 * s2 * c2 * np.sin(2.0 * x)
    qfi = QfiProfile(GridFunction(grid, j), GridFunction(grid, j_prime), n)
    problem = _uniform_problem(prior_support, m, qfi)
    p1 = s2 * np.sin(x) ** 2
    model = BinaryMeasurementModel(GridFunction(grid, p1))
    return problem, model
