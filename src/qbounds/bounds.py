"""MSE lower bounds: Bayesian QCRB and the optimal biased bound (OBB).

The OBB is the minimum over bias functions b(x) of

    F[b] = \\int p(x) { [1 + b'(x)]^2 / J(x) + b(x)^2 } dx,

with J the effective (n-fold) quantum Fisher information; the estimand is
the parameter x itself. The minimizer is solved in flux form: the flux
sigma = (p/J)(1 + b') obeys sigma' = p b and vanishes at both ends (the
natural condition b' = -1). With sigma at the m - 1 cell midpoints,
eliminating b leaves the symmetric tridiagonal system

    S sigma = Delta x,   S = diag(h q) + G W^-1 G^T,

where q is the midpoint mean of J/p, G the forward difference and W the
diagonal of cell width (h, or h/2 at the two end nodes) times p. S is
strictly diagonally dominant by h q, so it stays well conditioned as
J -> 0, and it needs no derivative of p or J. solve_optimal_bias
rescales it and splits off its diagonal so that the bias b and the slope
b' that F needs are read off without cancellation at either end of the
information range. For a uniform prior and constant J the solution and
the bound are closed-form hyperbolics; the variational route must
reproduce them, which is the main cross-check in the test suite.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import EstimationProblem, GridFunction, ParameterGrid
from .errors import DomainError, SingularSystem
from .numerics import _dot, solve_tridiagonal

__all__ = [
    "BoundReport",
    "bound_functional",
    "bayesian_qcrb",
    "optimal_bias_closed_form",
    "obb_closed_form",
    "solve_optimal_bias",
    "bias_ode_residual",
    "obb_variational",
]

# A residual above this triggers a warning, not an error. F[b] bounds only
# the estimators whose bias is b and is never below the OBB, so a poorly
# solved b can print a "lower bound" above the true OBB.
RESIDUAL_WARN_TOL = 1e-6

# Below z = _SERIES_Z the direct 1 - tanh(z)/z loses more than 5e-14 relative
# to cancellation, so it is summed from its Taylor series in z^2 there; the
# first omitted term (z^14) is under 1e-14 of the sum.
_SERIES_Z = 0.1
_DEFICIT_SERIES = (1 / 3, -2 / 15, 17 / 315, -62 / 2835, 1382 / 155925, -21844 / 6081075)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """An MSE lower bound with the bias function that produced it.

    ``residual`` is the bias's flux-form Euler-Lagrange residual
    (bias_ode_residual) where the bias was solved for, else None.
    """

    value: float
    bias: GridFunction | None
    residual: float | None


def bound_functional(
    p: EstimationProblem, b: GridFunction, b_prime: GridFunction
) -> float:
    """Evaluate the biased-bound functional F[b] for a candidate bias.

    F[b] bounds the MSE of the estimators whose bias is b, and F[b] >= OBB
    for every b: only the optimal bias bounds every estimator, so a b that
    misses it gives a value above the OBB. b = 0 reproduces the Bayesian
    QCRB integrand.
    """
    if b.grid != p.grid or b_prime.grid != p.grid:
        raise DomainError("bias samples must live on the problem grid")
    integrand = p.prior.samples.values * (
        (1.0 + b_prime.values) ** 2 / p.qfi.values + b.values**2
    )
    return float(_dot(integrand, p.grid.simpson_weights))


def bayesian_qcrb(p: EstimationProblem) -> BoundReport:
    """Bayesian quantum Cramer-Rao bound: the b = 0 member of the family."""
    value = float(_dot(p.prior.samples.values / p.qfi.values, p.grid.simpson_weights))
    return BoundReport(value, None, None)


def optimal_bias_closed_form(j: float, a: float, grid: ParameterGrid) -> GridFunction:
    """Optimal bias for uniform prior on (0, a) and constant effective QFI j.

    b(x) = sinh(r(a/2 - x)) / (r cosh(ra/2)) with r = sqrt(j), evaluated as
    sign(a-2x) exp(-r min(x, a-x)) (1 - exp(-r|a-2x|)) / (r (1 + exp(-ra))):
    every exponent is <= 0, so large r*a never overflows, and expm1 keeps
    the limit b -> a/2 - x as a^2 j -> 0 free of cancellation. The grid
    must span (0, a) exactly.
    """
    if not 0.0 < j < np.inf:
        raise DomainError(f"QFI must be finite and positive, got {j}")
    if not (grid.a1 == 0.0 and grid.a2 == a):
        raise DomainError(f"grid ({grid.a1}, {grid.a2}) must span the support (0, {a})")
    r = np.sqrt(j)
    x = grid.nodes()
    b = np.sign(a - 2.0 * x) * np.exp(-r * np.minimum(x, a - x)) \
        * -np.expm1(-r * np.abs(a - 2.0 * x)) / (r * (1.0 + np.exp(-r * a)))
    return GridFunction(grid, b)


def obb_closed_form(j_effective: float, a: float) -> BoundReport:
    """Closed-form OBB for uniform prior on (0, a) and constant effective QFI.

    value = 1/J - (2 / (a J^{3/2})) tanh(a sqrt(J) / 2) = (1 - tanh(z)/z) / J
    with z = a sqrt(J) / 2, which tends to the prior variance a^2/12 as
    a^2 J -> 0 without cancelling against 1/J. No bias is attached:
    optimal_bias_closed_form samples it on a given grid.
    """
    if not (j_effective > 0.0 and a > 0.0):
        raise DomainError(
            f"need positive QFI and width, got j={j_effective}, a={a}"
        )
    z = a * np.sqrt(j_effective) / 2.0
    if z < _SERIES_Z:
        deficit = z * z * np.polynomial.polynomial.polyval(z * z, _DEFICIT_SERIES)
    else:
        deficit = 1.0 - np.tanh(z) / z
    return BoundReport(float(deficit / j_effective), None, None)


def solve_optimal_bias(p: EstimationProblem) -> tuple[GridFunction, GridFunction]:
    """Solve the optimal-bias problem in flux form: (b, b') on the problem grid.

    S sigma = Delta x (see the module docstring) is solved for y = r sigma
    with r = sqrt(h q), so the system reads (I + K) y = Delta x / r with
    K = R^-1 G W^-1 G^T R^-1. y is split into the Jacobi guess
    y0 = (Delta x / r) / (1 + diag K) and a correction t that solves
    (I + K) t = -(K - diag K) y0. Then

        Delta(x + b) = h q sigma = r (y0 + t),
        Delta b = r (t - diag K y0),

    and neither difference cancels: at small information Delta x is the
    large part of Delta b, at large information both parts of Delta b are
    small. b is Delta b summed from the left, shifted so that sum(w p b) = 0
    (the discrete sigma' = p b summed over the whole support). The slope
    is the five-point derivative of the running sum of Delta(x + b),
    minus 1: at small information that sum is O(J) while b is not, so it
    carries none of the rounding noise that differentiating b picks up as
    J -> 0. Raises SingularSystem where h^2 underflows or K overflows (n J
    below about 1e-301 on 4001 nodes).
    """
    grid = p.grid
    h = grid.h
    # A spacing whose square underflows leaves a bound below the smallest
    # normal double; report it rather than print a value rounded to zero.
    if not h * h > 0.0:
        raise SingularSystem(f"grid spacing {h:.3g} is too fine: h^2 underflows")
    mass, q = p.mass, p.q
    # h q itself overflows on very wide supports; its square root does not
    r = np.sqrt(h) * np.sqrt(q)
    inv = 1.0 / mass
    # K ~ 2/(h^2 n J) can overflow; that raises below instead of warning
    with np.errstate(over="ignore"):
        off = -(inv[1:-1] / r[:-1]) / r[1:]
        k = (inv[:-1] / r + inv[1:] / r) / r
    if not (np.isfinite(k).all() and np.isfinite(off).all()):
        raise SingularSystem("the bias system overflows: the information n J is too small")
    y0 = grid.spacings / r / (1.0 + k)
    rhs = np.zeros_like(y0)
    rhs[:-1] -= off * y0[1:]
    rhs[1:] -= off * y0[:-1]
    t = solve_tridiagonal(1.0 + k, off, rhs)
    b = np.concatenate(([0.0], np.cumsum(r * (t - k * y0))))
    b -= _dot(mass, b) / mass.sum()
    bias = GridFunction(grid, b)
    running = GridFunction(grid, np.concatenate(([0.0], np.cumsum(r * (y0 + t)))))
    slope = GridFunction(grid, running.derivative().values - 1.0)

    residual = bias_ode_residual(p, bias)
    if residual > RESIDUAL_WARN_TOL:
        warnings.warn(
            f"optimal-bias residual {residual:.3e} exceeds {RESIDUAL_WARN_TOL:.0e}; "
            "the bound may lie above the optimal biased bound",
            RuntimeWarning,
            stacklevel=2,
        )
    return bias, slope


def bias_ode_residual(p: EstimationProblem, b: GridFunction) -> float:
    """Max flux-form Euler-Lagrange residual of a candidate bias.

    The flux sigma comes from sigma' = p b, summed from the left edge. The
    residual is Delta(x + b)/h - q sigma at the m - 1 midpoints and q sigma
    at the right edge, where the flux must vanish.
    """
    if b.grid != p.grid:
        raise DomainError("bias must live on the problem grid")
    flux = np.cumsum(p.mass * b.values)
    slope = (p.grid.spacings + np.diff(b.values)) / p.grid.h
    r = np.append(slope - p.q * flux[:-1], p.q[-1] * flux[-1])
    return float(np.max(np.abs(r)))


def obb_variational(p: EstimationProblem) -> BoundReport:
    """Optimal biased bound: F[b] by Simpson's rule at the solved bias and slope."""
    bias, slope = solve_optimal_bias(p)
    value = bound_functional(p, bias, slope)
    return BoundReport(value, bias, bias_ode_residual(p, bias))
