"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
PASS line on success (run with ``pytest -s tests/test_acceptance.py`` to see
them). Oracles are scalar closed forms, quadrature identities, and
finite-difference residuals, independent of the code paths they check.
"""
import math

import numpy as np
import pytest

from qbounds.bounds import (
    bayesian_qcrb,
    bound_functional,
    obb_closed_form,
    obb_variational,
    solve_optimal_bias,
)
from qbounds.core import EstimationProblem, GridFunction, QfiProfile, TargetFunction, make_uniform_prior
from qbounds.estimation import estimator_bias, mmse_mse, mse_via_decomposition
from qbounds.models import (
    DephasingParams,
    FieldParams,
    InterferometerParams,
    NoonParams,
    dephasing_model,
    field_model,
    interferometer_qfi,
    noon_model,
)

M = 4001
A_NOON = math.pi / 10.0


def constant_problem(j, a, m=M, n=1):
    prior = make_uniform_prior(0.0, a, m)
    grid = prior.grid
    return EstimationProblem(
        prior, TargetFunction.identity(grid), QfiProfile.constant(grid, j, n)
    )


def report(cid, text):
    print(f"\nACCEPTANCE {cid}: PASS - {text}")


def test_criterion_1_closed_form_vs_variational():
    worst = 0.0
    for j in (1.0, 25.0, 100.0, 900.0):
        for a in (math.pi / 10, math.pi / 2, math.pi):
            exact = obb_closed_form(j, a).value
            var = obb_variational(constant_problem(j, a)).value
            rel = abs(var - exact) / exact
            worst = max(worst, rel)
            assert rel <= 1e-6, (j, a, rel)
    report(1, f"closed-form/variational agreement, worst rel dev {worst:.2e}")


def test_criterion_2_field_bias_ode_residual():
    worst_r, worst_d = 0.0, 0.0
    for n in (1, 5, 20):
        problem, _ = field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), M, n)
        b = solve_optimal_bias(problem).values
        x = problem.grid.nodes()
        h = problem.grid.h
        j = 2.0 - np.sin(x) ** 2
        b2 = (b[2:] - 2 * b[1:-1] + b[:-2]) / h**2
        b1 = (b[2:] - b[:-2]) / (2 * h)
        # explicit ODE with the repetition count multiplying the b term,
        # as Eq. (15)-style reduction requires (J -> nJ):
        # (2-sin^2 x) b'' + sin(2x) b' = n (2-sin^2 x)^2 b - sin(2x)
        resid = (
            j[1:-1] * b2
            + np.sin(2 * x[1:-1]) * b1
            - n * j[1:-1] ** 2 * b[1:-1]
            + np.sin(2 * x[1:-1])
        )
        scale = np.max(np.abs(n * j**2 * b)) + np.max(np.abs(np.sin(2 * x)))
        rel = np.max(np.abs(resid)) / scale
        worst_r = max(worst_r, rel)
        assert rel <= 1e-6, (n, rel)
        d0 = (-25 * b[0] + 48 * b[1] - 36 * b[2] + 16 * b[3] - 3 * b[4]) / (12 * h)
        d1 = (25 * b[-1] - 48 * b[-2] + 36 * b[-3] - 16 * b[-4] + 3 * b[-5]) / (12 * h)
        worst_d = max(worst_d, abs(d0 + 1.0), abs(d1 + 1.0))
        assert abs(d0 + 1.0) <= 1e-5 and abs(d1 + 1.0) <= 1e-5, (n, d0, d1)
    report(2, f"field ODE residual {worst_r:.2e}, endpoint slope dev {worst_d:.2e}")


def test_criterion_3_bound_validity():
    checked = 0

    def check(problem, model, n):
        nonlocal checked
        obb = obb_variational(problem).value
        qcrb = bayesian_qcrb(problem).value
        mse = mmse_mse(model, problem.prior, n).mse
        assert obb <= mse + 1e-10
        assert obb <= qcrb + 1e-12
        checked += 1

    for n in range(1, 31):
        check(*noon_model(NoonParams(10), (0.0, A_NOON), M, n), n)
        check(*field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), M, n), n)
    for eta10 in range(1, 11):
        problem, model = dephasing_model(
            DephasingParams.from_eta(eta10 / 10.0), (0.0, math.pi), M, 5
        )
        check(problem, model, 5)
    report(3, f"obb <= mmse and obb <= qcrb on all {checked} rows")


def test_criterion_4_qcrb_failure_regime():
    problem, model = noon_model(NoonParams(10), (0.0, A_NOON), M, 1)
    qcrb = bayesian_qcrb(problem).value
    mse1 = mmse_mse(model, problem.prior, 1).mse
    prior_var = A_NOON**2 / 12.0
    assert mse1 < qcrb
    assert mse1 <= prior_var
    assert prior_var == pytest.approx(0.0082247, abs=5e-8)
    assert qcrb == pytest.approx(0.01, rel=1e-12)
    mse0 = mmse_mse(model, problem.prior, 0).mse
    assert mse0 == pytest.approx(prior_var, abs=1e-10)
    report(4, f"n=1 MMSE {mse1:.6f} < prior var {prior_var:.6f} < QCRB {qcrb:.6f}")


def test_criterion_5_asymptotic_gap_scaling():
    j0, a = 100.0, A_NOON
    worst = 0.0
    for n in (50, 100, 200, 400):
        y = a * math.sqrt(n * j0)
        assert y > 20.0  # asymptotic-regime precondition of the criterion
        p = constant_problem(j0, a, n=n)
        qcrb = bayesian_qcrb(p).value
        obb = obb_variational(p).value
        gap = (qcrb - obb) / qcrb
        predicted = 2.0 * math.tanh(y / 2.0) / y
        rel = abs(gap - predicted) / predicted
        worst = max(worst, rel)
        assert rel <= 0.01, (n, rel)
    report(5, f"(qcrb-obb)/qcrb follows 2 tanh(y/2)/y, worst dev {worst:.2e}")


def test_criterion_6_mse_decomposition_identity():
    worst = 0.0
    for n in (1, 5, 20):
        for problem, model in (
            noon_model(NoonParams(10), (0.0, A_NOON), M, n),
            dephasing_model(DephasingParams.from_eta(0.7), (0.0, math.pi), M, n),
            field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), M, n),
        ):
            direct = mmse_mse(model, problem.prior, n).mse
            split = mse_via_decomposition(model, problem.prior, n)
            worst = max(worst, abs(direct - split))
            assert abs(direct - split) <= 1e-10
    report(6, f"risk = integrated variance + bias^2, worst dev {worst:.2e}")


def test_criterion_7_bias_decay_and_anchors():
    problem1, model = noon_model(NoonParams(10), (0.0, A_NOON), M, 1)
    problem20, _ = noon_model(NoonParams(10), (0.0, A_NOON), M, 20)
    bias1 = estimator_bias(model, mmse_mse(model, problem1.prior, 1).estimates)
    bias20 = estimator_bias(model, mmse_mse(model, problem20.prior, 20).estimates)
    assert np.max(np.abs(bias20.values)) < np.max(np.abs(bias1.values))

    b = solve_optimal_bias(problem1)
    mid = (M - 1) // 2
    assert abs(b.values[mid]) <= 1e-8
    # hyperbolic identity oracle: b(0) = tanh(a sqrt(nJ)/2) / sqrt(nJ)
    assert b.values[0] == pytest.approx(0.0917152, abs=1e-6)
    assert b.values[0] == pytest.approx(math.tanh(math.pi / 2.0) / 10.0, abs=1e-6)
    report(7, "estimator bias decays with n; optimal-bias anchors hold")


def test_criterion_8_interferometer_qfi():
    p = InterferometerParams(1.0, 1.0)
    assert p.alpha_sq == pytest.approx(1.19968, abs=1e-5)
    assert interferometer_qfi(p) == pytest.approx(6.3994, abs=1e-3)
    for n_a in (0.0, 1.0, 4.0):
        assert interferometer_qfi(InterferometerParams(n_a, 0.0)) == n_a
    report(8, f"J(1,1) = {interferometer_qfi(p):.5f}; dark port B gives J = n_a")


def test_criterion_9_grid_convergence():
    def problems(m):
        return {
            "noon": noon_model(NoonParams(10), (0.0, A_NOON), m, 1)[0],
            "dephasing": dephasing_model(
                DephasingParams.from_eta(1.0), (0.0, math.pi), m, 5
            )[0],
            "interferometer": constant_problem(
                4 * interferometer_qfi(InterferometerParams(1.0, 1.0)),
                math.pi / 5.0, m=m,
            ),
            "field": field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), m, 1)[0],
        }

    coarse, fine = problems(2001), problems(4001)
    worst = 0.0
    for name in coarse:
        for bound in (bayesian_qcrb, obb_variational):
            v1 = bound(coarse[name]).value
            v2 = bound(fine[name]).value
            rel = abs(v1 - v2) / v2
            worst = max(worst, rel)
            assert rel <= 1e-6, (name, bound.__name__, rel)
    report(9, f"m 2001 -> 4001 moves every bound by <= {worst:.2e} relative")


def test_criterion_10_stationarity_of_solved_bias():
    problem, _ = noon_model(NoonParams(10), (0.0, A_NOON), M, 1)
    b = solve_optimal_bias(problem)
    base = bound_functional(problem, b, b.derivative())
    x = problem.grid.nodes()
    a1, a2 = problem.grid.a1, problem.grid.a2
    freqs = np.arange(1, 6) * math.pi / (a2 - a1)
    modes = freqs[:, None] * (x - a1)[None, :]
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(20):
        coeffs = rng.normal(size=5)
        delta = coeffs @ np.cos(modes)
        scale = 1e-2 / np.max(np.abs(delta))
        delta *= scale
        dprime = -((coeffs * freqs)[:, None] * np.sin(modes)).sum(0) * scale
        perturbed = bound_functional(
            problem,
            GridFunction(problem.grid, b.values + delta),
            GridFunction(problem.grid, b.derivative().values + dprime),
        )
        worst = min(worst, perturbed - base)
        assert perturbed >= base - 1e-10
    report(10, f"20 seeded perturbations never lower the functional ({worst:.2e})")
