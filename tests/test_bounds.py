import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_bvp

from qbounds.bounds import (
    _SERIES_Z,
    bayesian_qcrb,
    bias_ode_residual,
    bound_functional,
    obb_closed_form,
    obb_variational,
    optimal_bias_closed_form,
    solve_optimal_bias,
)
from qbounds.core import (
    EstimationProblem,
    GridFunction,
    ParameterGrid,
    PriorDensity,
    make_uniform_prior,
)
from qbounds.errors import DomainError, SingularSystem
from qbounds.estimation import mmse_mse
from qbounds.models import FieldParams, NoonParams, field_model, noon_model
from qbounds.numerics import composite_simpson

A_NOON = math.pi / 10.0


def constant_problem(j=100.0, a=A_NOON, m=4001, n=1):
    prior = make_uniform_prior(0.0, a, m)
    return EstimationProblem(prior, GridFunction(prior.grid, np.full(m, n * j)))


def closed_form_bias_prime(j, a, grid):
    """Analytic derivative of the closed-form bias, overflow-safe."""
    r = math.sqrt(j)
    x = grid.nodes()
    num = (
        -np.exp(-r * x)
        + np.exp(-r * (2.0 * a - x))
        - np.exp(-r * (a - x))
        + np.exp(-r * (a + x))
    )
    den = 1.0 - np.exp(-2.0 * r * a)
    return GridFunction(grid, num / den)


class TestBoundFunctional:
    def test_zero_bias_is_qcrb(self):
        p = constant_problem()
        zero = GridFunction(p.grid, np.zeros(p.grid.m))
        assert bound_functional(p, zero, zero) == pytest.approx(0.01, rel=1e-12)

    def test_full_negative_bias(self):
        # b(x) = -x kills the derivative term and leaves the prior second moment
        a = 0.7
        p = constant_problem(j=5.0, a=a, m=2001)
        b = GridFunction(p.grid, -p.grid.nodes())
        bp = GridFunction(p.grid, -np.ones(p.grid.m))
        assert bound_functional(p, b, bp) == pytest.approx(a**2 / 3.0, rel=1e-12)

    def test_closed_form_bias_reproduces_scalar_bound(self):
        j, a = 100.0, A_NOON
        p = constant_problem(j=j, a=a)
        b = optimal_bias_closed_form(j, a, p.grid)
        bp = closed_form_bias_prime(j, a, p.grid)
        assert bound_functional(p, b, bp) == pytest.approx(
            obb_closed_form(j, a).value, abs=1e-9
        )

    def test_grid_mismatch(self):
        p = constant_problem(m=401)
        other = ParameterGrid(0.0, A_NOON, 403)
        z = GridFunction(other, np.zeros(403))
        with pytest.raises(DomainError, match="problem grid"):
            bound_functional(p, z, z)


class TestBayesianQcrb:
    def test_noon(self):
        problem, _ = noon_model(NoonParams(10), (0.0, A_NOON), 4001, 1)
        assert bayesian_qcrb(problem).value == pytest.approx(0.01, rel=1e-12)

    def test_constant_j_scaling(self):
        # dephasing eta=1, n=5 over (0, pi): 1/(n eta^2) = 0.2
        p = constant_problem(j=1.0, a=math.pi, m=2001, n=5)
        assert bayesian_qcrb(p).value == pytest.approx(0.2, rel=1e-12)

    def test_x_dependent_qfi_against_quadrature_oracle(self):
        # (2/pi) \int dx / (2 - sin^2 x) = 1/sqrt(2) via arctan(tan x / sqrt 2)
        problem, _ = field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 4001, 1)
        assert bayesian_qcrb(problem).value == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-9
        )


class TestClosedFormBias:
    def test_midpoint_zero(self):
        for j, a in ((3.0, 1.0), (100.0, A_NOON)):
            grid = ParameterGrid(0.0, a, 4001)
            b = optimal_bias_closed_form(j, a, grid)
            assert b.values[2000] == pytest.approx(0.0, abs=1e-14)

    def test_left_endpoint_hyperbolic_identity(self):
        # (cosh y - 1)/sinh y = tanh(y/2) with y = sqrt(J) a
        grid = ParameterGrid(0.0, A_NOON, 4001)
        b = optimal_bias_closed_form(100.0, A_NOON, grid)
        assert b.values[0] == pytest.approx(math.tanh(math.pi / 2.0) / 10.0, rel=1e-12)

    def test_neumann_slope_at_endpoints(self):
        grid = ParameterGrid(0.0, A_NOON, 4001)
        b = optimal_bias_closed_form(100.0, A_NOON, grid).values
        h = grid.h
        d0 = (-25 * b[0] + 48 * b[1] - 36 * b[2] + 16 * b[3] - 3 * b[4]) / (12 * h)
        d1 = (25 * b[-1] - 48 * b[-2] + 36 * b[-3] - 16 * b[-4] + 3 * b[-5]) / (12 * h)
        assert d0 == pytest.approx(-1.0, abs=1e-6)
        assert d1 == pytest.approx(-1.0, abs=1e-6)

    def test_prior_variance_limit_holds_to_roundoff(self):
        # the bias tends to a/2 - x, with a relative correction O(a^2 J)
        grid = ParameterGrid(0.0, A_NOON, 4001)
        b_limit = A_NOON / 2.0 - grid.nodes()
        for j in (1e-10, 1e-14, 1e-18):
            b = optimal_bias_closed_form(j, A_NOON, grid).values
            assert np.max(np.abs(b - b_limit)) <= 1e-12 * np.max(np.abs(b_limit))

    def test_nonpositive_j_rejected(self):
        with pytest.raises(DomainError):
            optimal_bias_closed_form(0.0, 1.0, ParameterGrid(0.0, 1.0, 11))
        with pytest.raises(DomainError):
            optimal_bias_closed_form(math.nan, 1.0, ParameterGrid(0.0, 1.0, 11))
        with pytest.raises(DomainError):  # inf * 0 would be nan at the ends
            optimal_bias_closed_form(math.inf, 1.0, ParameterGrid(0.0, 1.0, 5))
        with pytest.raises(DomainError):
            optimal_bias_closed_form(1.0, math.nan, ParameterGrid(0.0, 1.0, 11))

    @pytest.mark.parametrize("a, a1, a2", [(2.0, 0.0, 1.0), (math.inf, 0.0, 1.0),
                                           (1.0, 0.5, 1.0), (1.0, -1.0, 1.0)])
    def test_grid_off_the_support_rejected(self, a, a1, a2):
        with pytest.raises(DomainError):
            optimal_bias_closed_form(1.0, a, ParameterGrid(a1, a2, 5))


class TestClosedFormBound:
    def test_noon_value(self):
        rep = obb_closed_form(100.0, A_NOON)
        expected = 0.01 - (2.0 / (100.0 * math.pi)) * math.tanh(math.pi / 2.0)
        assert rep.value == pytest.approx(expected, rel=1e-14)
        assert rep.value == pytest.approx(0.0041612, abs=5e-8)

    def test_small_information_limit_is_prior_variance(self):
        rep = obb_closed_form(1e-6, 1.0)
        assert rep.value == pytest.approx(1.0 / 12.0, rel=1e-6)

    def test_prior_variance_limit_holds_to_roundoff(self):
        # 1/J and the tanh term cancel as a^2 J -> 0; the value must still
        # match a^2/12 - a^4 J/120, whose next term is O(a^6 J^2)
        for j in (1e-10, 1e-14, 1e-18):
            limit = A_NOON**2 / 12.0 - A_NOON**4 * j / 120.0
            assert obb_closed_form(j, A_NOON).value == pytest.approx(limit, rel=1e-12)
        # the series and the direct form meet at z = a sqrt(J)/2 = _SERIES_Z
        j_branch = (2.0 * _SERIES_Z / A_NOON) ** 2
        below = obb_closed_form(np.nextafter(j_branch, 0.0), A_NOON).value
        assert below == pytest.approx(obb_closed_form(j_branch, A_NOON).value, rel=1e-12)

    def test_large_information_limit_is_qcrb(self):
        # tanh saturates at 1, so value = (1/J)(1 - 2/(a sqrt(J))): the
        # correction is 2e-5 relative at j=100, a=1e4 and vanishing with a
        rep = obb_closed_form(100.0, 1e4)
        assert rep.value == pytest.approx(0.01, rel=3e-5)
        assert rep.value == pytest.approx(0.01 * (1.0 - 2.0 / (1e4 * 10.0)), rel=1e-12)

    def test_monotone_in_information(self):
        values = [obb_closed_form(j, 1.0).value for j in (0.5, 2.0, 10.0, 200.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            obb_closed_form(-1.0, 1.0)
        with pytest.raises(DomainError):
            obb_closed_form(1.0, 0.0)
        with pytest.raises(DomainError):
            obb_closed_form(math.nan, 1.0)
        with pytest.raises(DomainError):
            obb_closed_form(1.0, math.nan)


class TestSolveOptimalBias:
    def test_matches_closed_form(self):
        p = constant_problem(j=100.0, a=A_NOON, m=4001)
        b = solve_optimal_bias(p)
        exact = optimal_bias_closed_form(100.0, A_NOON, p.grid)
        assert np.max(np.abs(b.values - exact.values)) <= 1e-8

    def test_antisymmetry_constant_j(self):
        p = constant_problem(j=25.0, a=1.0, m=2001)
        b = solve_optimal_bias(p).values
        assert np.max(np.abs(b + b[::-1])) <= 1e-8

    def test_field_ode_residual(self):
        # x-dependent QFI: residual checked against the explicit ODE
        # (2-sin^2 x) b'' + sin(2x) b' = n (2-sin^2 x)^2 b - sin(2x)
        for n in (1, 5, 20):
            problem, _ = field_model(
                FieldParams(math.pi / 2), (0.0, math.pi / 2), 4001, n
            )
            b = solve_optimal_bias(problem).values
            x = problem.grid.nodes()
            h = problem.grid.h
            j = 2.0 - np.sin(x) ** 2
            b2 = (b[2:] - 2 * b[1:-1] + b[:-2]) / h**2
            b1 = (b[2:] - b[:-2]) / (2 * h)
            r = (
                j[1:-1] * b2
                + np.sin(2 * x[1:-1]) * b1
                - n * j[1:-1] ** 2 * b[1:-1]
                + np.sin(2 * x[1:-1])
            )
            scale = np.max(np.abs(n * j**2 * b)) + np.max(np.abs(np.sin(2 * x)))
            assert np.max(np.abs(r)) / scale <= 1e-6

    def test_canonical_residual_small(self):
        p = constant_problem(j=100.0, a=A_NOON, m=4001)
        b = solve_optimal_bias(p)
        assert bias_ode_residual(p, b) <= 1e-6

    def test_large_residual_warns_that_the_bound_may_be_high(self):
        # diag K underflows on a support this wide, leaving a residual of 1
        prior = make_uniform_prior(0.0, 1e300, 101)
        p = EstimationProblem(prior, GridFunction(prior.grid, np.ones(101)))
        with pytest.warns(RuntimeWarning, match="may lie above the optimal biased bound"):
            solve_optimal_bias(p)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_system_raises_without_warnings(self):
        # K ~ 1/(h^2 J) overflows on 4001 nodes at this normal J: one error,
        # no numpy warnings and no nan bound
        p = constant_problem(j=1e-305, a=math.pi, m=4001)
        with pytest.raises(SingularSystem, match="overflows"):
            obb_variational(p)


class TestObbVariational:
    @pytest.mark.parametrize("j", [1.0, 25.0, 100.0])
    def test_matches_closed_form(self, j):
        p = constant_problem(j=j, a=A_NOON, m=4001)
        rep = obb_variational(p)
        exact = obb_closed_form(j, A_NOON).value
        assert rep.value == pytest.approx(exact, rel=1e-6)
        assert rep.residual is not None

    def test_never_above_qcrb(self):
        for build in (
            lambda: noon_model(NoonParams(10), (0.0, A_NOON), 2001, 3)[0],
            lambda: field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 2001, 2)[0],
            lambda: constant_problem(j=0.04, a=math.pi, m=2001, n=5),
        ):
            p = build()
            assert obb_variational(p).value <= bayesian_qcrb(p).value + 1e-12

    def test_field_regression_anchor(self):
        problem, _ = field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 4001, 1)
        rep = obb_variational(problem)
        # frozen from the first verified run; strictly below the QCRB 1/sqrt(2)
        assert rep.value == pytest.approx(0.1503503983648113, rel=1e-9)
        assert rep.value < 1.0 / math.sqrt(2.0)

    def test_boundary_slopes(self):
        problem, _ = field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 4001, 5)
        b = obb_variational(problem).bias.values
        h = problem.grid.h
        d0 = (-25 * b[0] + 48 * b[1] - 36 * b[2] + 16 * b[3] - 3 * b[4]) / (12 * h)
        d1 = (25 * b[-1] - 48 * b[-2] + 36 * b[-3] - 16 * b[-4] + 3 * b[-5]) / (12 * h)
        assert d0 == pytest.approx(-1.0, abs=1e-5)
        assert d1 == pytest.approx(-1.0, abs=1e-5)

    def test_grid_convergence(self):
        for m1, m2 in ((2001, 4001),):
            for build in (
                lambda m: constant_problem(j=100.0, a=A_NOON, m=m),
                lambda m: field_model(
                    FieldParams(math.pi / 2), (0.0, math.pi / 2), m, 1
                )[0],
            ):
                v1 = obb_variational(build(m1)).value
                v2 = obb_variational(build(m2)).value
                assert abs(v1 - v2) / v2 <= 1e-6

    def test_stationarity_under_smooth_perturbations(self):
        p = constant_problem(j=100.0, a=A_NOON, m=2001)
        rep = obb_variational(p)
        b = rep.bias
        base = bound_functional(p, b, b.derivative())
        x = p.grid.nodes()
        a1, a2 = p.grid.a1, p.grid.a2
        rng = np.random.default_rng(20240917)
        freqs = np.arange(1, 6) * math.pi / (a2 - a1)
        modes = freqs[:, None] * (x - a1)[None, :]
        for _ in range(20):
            coeffs = rng.normal(size=5)
            delta = coeffs @ np.cos(modes)
            scale = 1e-2 / np.max(np.abs(delta))
            delta *= scale
            dprime = -((coeffs * freqs)[:, None] * np.sin(modes)).sum(0) * scale
            perturbed = bound_functional(
                p,
                GridFunction(p.grid, b.values + delta),
                GridFunction(p.grid, b.derivative().values + dprime),
            )
            assert perturbed >= base - 1e-10


def bump(x):
    return np.exp(-((x - 0.4) ** 2) / 0.1)


def linear(x):
    return (1.0 + x) / 1.5


def unit_interval_problem(density, m, j=25.0):
    """Constant QFI under a prior normalized by Simpson."""
    grid = ParameterGrid(0.0, 1.0, m)
    v = density(grid.nodes())
    prior = PriorDensity(GridFunction(grid, v / composite_simpson(v, grid.h)))
    return EstimationProblem(prior, GridFunction(grid, np.full(m, j)))


def obb_by_collocation(density, j, a=1.0, tol=1e-10):
    """OBB on (0, a) from scipy's collocation BVP solver.

    j(x) is the effective QFI. With q = p (1 + b') / J the Euler-Lagrange
    equation (p(1+b')/J)' = p b and the conditions b'(0) = b'(a) = -1 read
    b' = q J / p - 1, q' = p b, q(0) = q(a) = 0; the functional is then
    \\int (q^2 J / p + p b^2) dx.
    """
    norm = quad(density, 0.0, a, epsabs=0.0, epsrel=1e-13)[0]

    def p(x):
        return density(x) / norm

    sol = solve_bvp(
        lambda x, y: np.vstack([y[1] * j(x) / p(x) - 1.0, p(x) * y[0]]),
        lambda ya, yb: np.array([ya[1], yb[1]]),
        np.linspace(0.0, a, 101), np.zeros((2, 101)), tol=tol, max_nodes=100_000,
    )
    assert sol.success, sol.message

    def integrand(x):
        b, q = sol.sol(x)
        return q * q * j(x) / p(x) + p(x) * b * b

    return quad(integrand, 0.0, a, epsabs=0.0, epsrel=1e-13, limit=200)[0]


class TestNonUniformPrior:
    @pytest.mark.parametrize("density", [linear, bump], ids=["linear", "bump"])
    def test_obb_matches_collocation(self, density):
        value = obb_variational(unit_interval_problem(density, 4001)).value
        oracle = obb_by_collocation(density, lambda x: 25.0)
        assert value == pytest.approx(oracle, rel=1e-9)


class TestSmallInformation:
    @pytest.mark.parametrize("b_field", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_field_matches_collocation(self, b_field):
        # as B -> 0 the OBB tends to the prior variance (pi/2)^2/12 = 0.2056167583560
        a = math.pi / 2
        problem, _ = field_model(FieldParams(b_field), (0.0, a), 4001, 1)
        s2, c2 = math.sin(b_field / 2) ** 2, math.cos(b_field / 2) ** 2
        oracle = obb_by_collocation(
            np.ones_like, lambda x: 4.0 * s2 * (s2 + c2 * np.cos(x) ** 2), a, tol=1e-12
        )
        value = obb_variational(problem).value
        assert value == pytest.approx(oracle, rel=0.0, abs=1e-11)
        assert value <= a * a / 12.0


class TestBoundOrdering:
    @given(
        particles=st.integers(1, 20),
        n=st.integers(1, 30),
        width=st.floats(0.05, math.pi / 2),
        b_field=st.floats(-6.0, math.log10(3.0)).map(lambda e: 10.0**e),
    )
    @settings(max_examples=25, deadline=None)
    def test_obb_below_qcrb_prior_variance_mmse_and_falls_with_n(
        self, particles, n, width, b_field
    ):
        # criterion 3's tolerances: 1e-12 against the QCRB, 1e-10 against the MMSE
        prior_variance = width * width / 12.0
        for build in (
            lambda k: noon_model(NoonParams(particles), (0.0, width), 4001, k),
            lambda k: field_model(FieldParams(b_field), (0.0, width), 4001, k),
        ):
            problem, model = build(n)
            obb = obb_variational(problem).value
            assert obb <= bayesian_qcrb(problem).value + 1e-12
            assert obb <= prior_variance + 1e-12
            assert obb <= mmse_mse(model, problem.prior, n).mse + 1e-10
            assert obb_variational(build(n + 1)[0]).value <= obb + 1e-12
