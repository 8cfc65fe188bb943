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

Evolution time is fixed to 1 throughout. ``EXAMPLES`` is the one table of
the four by name: default prior support and parameters, and a builder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .core import EstimationProblem, GridFunction, make_uniform_prior
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
        if not (self.N >= 1 and self.N % 1 == 0):
            raise DomainError(f"particle number must be an integer >= 1, got {self.N}")


@dataclass(frozen=True)
class DephasingParams:
    """Dephasing qubit, eta = exp(-gamma); from_eta keeps the eta it is given."""

    gamma: float
    eta: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.gamma >= 0.0:
            raise DomainError(f"decay rate must be >= 0, got {self.gamma}")
        object.__setattr__(self, "eta", math.exp(-self.gamma))

    @classmethod
    def from_eta(cls, eta: float) -> "DephasingParams":
        if not 0.0 < eta <= 1.0:
            raise DomainError(f"eta must lie in (0, 1], got {eta}")
        params = cls(-math.log(eta))
        object.__setattr__(params, "eta", float(eta))
        return params


@dataclass(frozen=True)
class InterferometerParams:
    """SU(2) interferometer photon numbers; |alpha|^2 solved from n_b."""

    n_a: float
    n_b: float
    alpha_sq: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.n_a < math.inf and 0.0 <= self.n_b < math.inf):
            raise DomainError("photon numbers must be finite and nonnegative")
        object.__setattr__(self, "alpha_sq", _solve_alpha_sq(self.n_b))


@dataclass(frozen=True)
class FieldParams:
    """Magnetic field magnitude B (phase accumulated at unit time)."""

    B: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.B):
            raise DomainError(f"field magnitude must be finite, got {self.B}")


def _uniform_model(support, m: int, n: int, j, p1=None):
    """(problem, measurement model or None) under a uniform prior on support.

    j(x) and p1(x) give the single-shot QFI (a scalar for a constant one)
    and the probability of outcome 1 at the grid nodes x; the problem holds
    the n-fold QFI n * j(x). Without p1 there is no measurement model.
    """
    prior = make_uniform_prior(support[0], support[1], m)
    grid = prior.grid
    x = grid.nodes()
    # an n * J past the double range is inf, which EstimationProblem rejects
    with np.errstate(over="ignore"):
        qfi = GridFunction(grid, n * np.broadcast_to(j(x), x.shape))
    model = None if p1 is None else BinaryMeasurementModel(GridFunction(grid, p1(x)))
    return EstimationProblem(prior, qfi), model


def noon_model(
    params: NoonParams,
    prior_support: tuple[float, float],
    m: int,
    n: int = 1,
) -> tuple[EstimationProblem, BinaryMeasurementModel]:
    """NOON-state phase estimation: constant QFI N^2, p1 = sin^2(Nx/2)."""
    N = params.N
    # N * N is inf where N ** 2 raises OverflowError; EstimationProblem rejects inf
    return _uniform_model(prior_support, m, n, lambda x: float(N) * float(N),
                          lambda x: np.sin(N * x / 2.0) ** 2)


def dephasing_model(
    params: DephasingParams,
    prior_support: tuple[float, float],
    m: int,
    n: int = 1,
) -> tuple[EstimationProblem, BinaryMeasurementModel]:
    """Dephasing qubit: constant QFI eta^2, p1 = (1 - eta cos x)/2."""
    eta = params.eta
    return _uniform_model(prior_support, m, n, lambda x: eta**2,
                          lambda x: (1.0 - eta * np.cos(x)) / 2.0)


def _solve_alpha_sq(n_b: float) -> float:
    """Solve u tanh(u) = n_b for u = |alpha|^2 >= 0.

    u tanh u is strictly increasing from 0 and u tanh u > u - 0.1 at
    u = n_b + 2 >= 2, so [0, n_b + 2] brackets the root for n_b >= 0.
    Bisection halves it until no double lies strictly inside, then takes
    the end whose u tanh u is nearer n_b. The midpoint lo + (hi - lo)/2
    stays finite where lo + hi would overflow (n_b near 1e308).
    """
    lo, hi = 0.0, n_b + 2.0
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        lo, hi = (mid, hi) if mid * math.tanh(mid) < n_b else (lo, mid)
    return min((lo, hi), key=lambda u: abs(u * math.tanh(u) - n_b))


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
    return _uniform_model(prior_support, m, n, lambda x: interferometer_qfi(params))[0]


def field_model(
    params: FieldParams,
    prior_support: tuple[float, float],
    m: int,
    n: int = 1,
) -> tuple[EstimationProblem, BinaryMeasurementModel]:
    """Qubit in an XZ-plane field: x-dependent QFI.

    J(x) = 4 s^2 (1 - c^2 sin^2 x) with s = sin(B/2), c = cos(B/2),
    evaluated as 4 s^2 (s^2 + c^2 cos^2 x) since 1 - c^2 = s^2: the
    direct form cancels near x = pi/2 as B -> 0. p1(x) = s^2 sin^2 x.
    """
    s2 = math.sin(params.B / 2.0) ** 2
    c2 = math.cos(params.B / 2.0) ** 2
    return _uniform_model(prior_support, m, n,
                          lambda x: 4.0 * s2 * (s2 + c2 * np.cos(x) ** 2),
                          lambda x: s2 * np.sin(x) ** 2)


class Example(NamedTuple):
    support: tuple[float, float]  # default prior support
    defaults: dict  # parameter defaults; an int default marks an integral one
    aliases: dict  # other name -> parameter
    build: Callable  # (params dict, support, m, n) -> (problem, model or None)


# Each build calls its builder through this module's globals, so a wrapper
# installed on those names (as bench/spans.py does) sees every build.
EXAMPLES = {
    "noon": Example(
        (0.0, math.pi / 10.0), {"N": 10}, {},
        lambda p, *args: noon_model(NoonParams(p["N"]), *args)),
    "dephasing": Example(
        (0.0, math.pi), {"eta": 1.0}, {"gamma": "eta"},  # gamma = -ln(eta)
        lambda p, *args: dephasing_model(
            DephasingParams(p["gamma"]) if "gamma" in p
            else DephasingParams.from_eta(p["eta"]), *args)),
    "interferometer": Example(
        (0.0, math.pi / 5.0), {"n_a": 1.0, "n_b": 1.0}, {},
        lambda p, *args: (interferometer_problem(
            InterferometerParams(p["n_a"], p["n_b"]), *args), None)),
    "field": Example(
        (0.0, math.pi / 2.0), {"B": math.pi / 2.0}, {},
        lambda p, *args: field_model(FieldParams(p["B"]), *args)),
}
