"""MSE lower bounds: Bayesian QCRB and the optimal biased bound (OBB).

The OBB is the minimum over bias functions b(x) of

    F[b] = \\int p(x) { [f'(x) + b'(x)]^2 / J(x) + b(x)^2 } dx,

with J the effective (n-fold) quantum Fisher information. The minimizer
solves a linear two-point boundary-value problem

    b'' + c(x) b' - J(x) b = -f'' - c(x) f',   c = (ln(p/J))',

with Neumann conditions b'(a1) = -f'(a1), b'(a2) = -f'(a2). For a uniform
prior, constant J and f(x) = x the solution and the bound are closed-form
hyperbolics; the variational route must reproduce them, which is the main
cross-check in the test suite.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_GRID_M, EstimationProblem, GridFunction, ParameterGrid
from .errors import DomainError, GridMismatch, SingularSystem
from .numerics import composite_simpson, solve_tridiagonal

__all__ = [
    "BoundMethod",
    "SolverDiagnostics",
    "BoundReport",
    "bound_functional",
    "bayesian_qcrb",
    "optimal_bias_closed_form",
    "obb_closed_form",
    "solve_optimal_bias",
    "bias_ode_residual",
    "obb_variational",
    "grid_derivative",
]

# Residual above this fraction of the ODE scale max|f'| * max J triggers a
# warning (never an error: Eq-style biased bounds stay valid for any b).
RESIDUAL_WARN_TOL = 1e-6

# Below z = _SERIES_Z the direct 1 - tanh(z)/z loses more than 5e-14 relative
# to cancellation, so it is summed from its Taylor series in z^2 there; the
# first omitted term (z^14) is under 1e-14 of the sum.
_SERIES_Z = 0.1
_DEFICIT_SERIES = (1 / 3, -2 / 15, 17 / 315, -62 / 2835, 1382 / 155925, -21844 / 6081075)


class BoundMethod(enum.Enum):
    BAYESIAN_QCRB = "bayesian_qcrb"
    OBB_CLOSED_FORM = "obb_closed_form"
    OBB_VARIATIONAL = "obb_variational"


@dataclass(frozen=True)
class SolverDiagnostics:
    ode_residual_max: float | None
    grid_m: int


@dataclass(frozen=True, eq=False)
class BoundReport:
    """An MSE lower bound with the bias function that produced it."""

    value: float
    method: BoundMethod
    bias: GridFunction | None
    diagnostics: SolverDiagnostics

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise DomainError(f"bound value must be nonnegative, got {self.value}")


def grid_derivative(b: GridFunction) -> GridFunction:
    """Fourth-order finite-difference derivative on the grid.

    Five-point central stencil on the interior, one-sided/offset five-point
    stencils at the two nodes nearest each endpoint. Functional values built
    from a second-order derivative would be limited to ~1e-6 relative
    accuracy at the default grid; fourth order pushes the stencil error far
    below the BVP discretization error.
    """
    v = b.values
    h = b.grid.h
    d = np.empty_like(v)
    d[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12.0 * h)
    d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12.0 * h)
    d[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12.0 * h)
    d[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12.0 * h)
    return GridFunction(b.grid, d)


def bound_functional(
    p: EstimationProblem, b: GridFunction, b_prime: GridFunction
) -> float:
    """Evaluate the biased-bound functional F[b] for a candidate bias.

    Any bias gives a valid MSE lower bound; b = 0 reproduces the Bayesian
    QCRB integrand.
    """
    if b.grid != p.grid or b_prime.grid != p.grid:
        raise GridMismatch("bias samples must live on the problem grid")
    j_eff = p.qfi.effective()
    fp = p.target.f_prime.values
    integrand = p.prior.samples.values * (
        (fp + b_prime.values) ** 2 / j_eff + b.values**2
    )
    return float(composite_simpson(integrand, p.grid.h))


def bayesian_qcrb(p: EstimationProblem) -> BoundReport:
    """Bayesian quantum Cramer-Rao bound: the b = 0 member of the family."""
    integrand = (
        p.prior.samples.values * p.target.f_prime.values**2 / p.qfi.effective()
    )
    value = float(composite_simpson(integrand, p.grid.h))
    return BoundReport(
        value, BoundMethod.BAYESIAN_QCRB, None, SolverDiagnostics(None, p.grid.m)
    )


def optimal_bias_closed_form(j: float, a: float, grid: ParameterGrid) -> GridFunction:
    """Optimal bias for uniform prior on (0, a), constant effective QFI j, f=x.

    b(x) = sinh(r(a/2 - x)) / (r cosh(ra/2)) with r = sqrt(j), evaluated as
    sign(a-2x) exp(-r min(x, a-x)) (1 - exp(-r|a-2x|)) / (r (1 + exp(-ra))):
    every exponent is <= 0, so large r*a never overflows, and expm1 keeps
    the limit b -> a/2 - x as a^2 j -> 0 free of cancellation.
    """
    if j <= 0.0:
        raise DomainError(f"QFI must be positive, got {j}")
    if a <= 0.0:
        raise DomainError(f"support width must be positive, got {a}")
    r = np.sqrt(j)
    x = grid.nodes()
    b = np.sign(a - 2.0 * x) * np.exp(-r * np.minimum(x, a - x)) \
        * -np.expm1(-r * np.abs(a - 2.0 * x)) / (r * (1.0 + np.exp(-r * a)))
    return GridFunction(grid, b)


def obb_closed_form(
    j_effective: float, a: float, grid: ParameterGrid | None = None
) -> BoundReport:
    """Closed-form OBB for uniform prior on (0, a) and constant effective QFI.

    value = 1/J - (2 / (a J^{3/2})) tanh(a sqrt(J) / 2) = (1 - tanh(z)/z) / J
    with z = a sqrt(J) / 2, which tends to the prior variance a^2/12 as
    a^2 J -> 0 without cancelling against 1/J.
    """
    if j_effective <= 0.0 or a <= 0.0:
        raise DomainError(
            f"need positive QFI and width, got j={j_effective}, a={a}"
        )
    if grid is None:
        grid = ParameterGrid(0.0, a, DEFAULT_GRID_M)
    z = a * np.sqrt(j_effective) / 2.0
    if z < _SERIES_Z:
        deficit = z * z * np.polynomial.polynomial.polyval(z * z, _DEFICIT_SERIES)
    else:
        deficit = 1.0 - np.tanh(z) / z
    value = deficit / j_effective
    bias = optimal_bias_closed_form(j_effective, a, grid)
    return BoundReport(
        float(value),
        BoundMethod.OBB_CLOSED_FORM,
        bias,
        SolverDiagnostics(None, grid.m),
    )


def _ode_coefficients(p: EstimationProblem):
    """(c, J_eff, forcing) of the canonical form b'' + c b' - J b = forcing.

    c = (ln(p/J))' = p'/p - J'/J; the repetition count cancels from c and
    enters only through J -> nJ.
    """
    j = p.qfi.j_base.values
    c = p.prior_log_slope() - p.qfi.j_prime.values / j
    j_eff = p.qfi.effective()
    forcing = -p.target.f_double_prime.values - c * p.target.f_prime.values
    return c, j_eff, forcing


def solve_optimal_bias(p: EstimationProblem) -> GridFunction:
    """Solve the optimal-bias BVP on the problem grid.

    Second-order central differences; the Neumann data b'(a1) = -f'(a1),
    b'(a2) = -f'(a2) is folded into the first and last rows through ghost
    nodes, so the system stays tridiagonal and strictly diagonally dominant
    (diagonal -2/h^2 - J with J > 0).
    """
    grid = p.grid
    m, h = grid.m, grid.h
    c, j_eff, forcing = _ode_coefficients(p)
    fp = p.target.f_prime.values
    g1, g2 = -fp[0], -fp[-1]

    inv_h2 = 1.0 / (h * h) if h * h > 0.0 else np.inf
    if np.isinf(inv_h2):
        raise SingularSystem(f"grid spacing {h:.3g} is too fine: 1/h^2 overflows")
    diag = -2.0 * inv_h2 - j_eff
    sub = np.empty(m - 1)
    sup = np.empty(m - 1)
    sub[:-1] = inv_h2 - c[1:-1] / (2.0 * h)
    sup[1:] = inv_h2 + c[1:-1] / (2.0 * h)
    rhs = forcing.copy()

    # Ghost-node elimination: b' at the boundary equals the Neumann datum,
    # so the c b' term moves to the right-hand side (where it cancels the
    # -c f' part of the forcing exactly).
    sup[0] = 2.0 * inv_h2
    rhs[0] = forcing[0] - c[0] * g1 + 2.0 * g1 / h
    sub[-1] = 2.0 * inv_h2
    rhs[-1] = forcing[-1] - c[-1] * g2 - 2.0 * g2 / h

    b = solve_tridiagonal(sub, diag, sup, rhs)
    bias = GridFunction(grid, b)

    residual = bias_ode_residual(p, bias)
    scale = float(np.max(np.abs(fp)) * np.max(j_eff))
    if scale > 0.0 and residual > RESIDUAL_WARN_TOL * scale:
        warnings.warn(
            f"optimal-bias ODE residual {residual:.3e} exceeds "
            f"{RESIDUAL_WARN_TOL:.0e} of scale {scale:.3e}; the bound stays "
            "valid but may be loose",
            RuntimeWarning,
            stacklevel=2,
        )
    return bias


def bias_ode_residual(p: EstimationProblem, b: GridFunction) -> float:
    """Max interior residual of the canonical ODE for a candidate bias.

    r = b'' + c b' - J b - forcing on the interior nodes, with the same
    central stencil the solver assembles.
    """
    if b.grid != p.grid:
        raise GridMismatch("bias must live on the problem grid")
    h = p.grid.h
    c, j_eff, forcing = _ode_coefficients(p)
    v = b.values
    b2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    b1 = (v[2:] - v[:-2]) / (2.0 * h)
    r = b2 + c[1:-1] * b1 - j_eff[1:-1] * v[1:-1] - forcing[1:-1]
    return float(np.max(np.abs(r)))


def obb_variational(p: EstimationProblem) -> BoundReport:
    """Optimal biased bound via the solved BVP bias.

    Evaluates F[b] at the solved bias; the derivative uses the same stencil
    as assembly so the discrete minimization stays consistent.
    """
    bias = solve_optimal_bias(p)
    value = bound_functional(p, bias, grid_derivative(bias))
    residual = bias_ode_residual(p, bias)
    return BoundReport(
        value,
        BoundMethod.OBB_VARIATIONAL,
        bias,
        SolverDiagnostics(residual, p.grid.m),
    )
