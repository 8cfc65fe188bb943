import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, xlogy

from qbounds.bounds import obb_variational
from qbounds.core import GridFunction, ParameterGrid, TargetFunction, make_uniform_prior
from qbounds.errors import DomainError, ZeroEvidence
from qbounds.estimation import (
    BinaryMeasurementModel,
    mmse_estimates,
    mmse_mse,
    likelihood_table,
    mse_via_decomposition,
    posterior,
)
from qbounds.models import (
    DephasingParams,
    FieldParams,
    NoonParams,
    dephasing_model,
    field_model,
    noon_model,
)
from qbounds.numerics import composite_simpson

A_NOON = math.pi / 10.0


def noon(n=1, m=4001):
    problem, model = noon_model(NoonParams(10), (0.0, A_NOON), m, n)
    return problem, model


class TestOutcomePmf:
    def test_fair_coin_point(self):
        # p1(pi/20) = sin^2(pi/4) = 1/2, so two shots give (1/4, 1/2, 1/4)
        problem, model = noon(m=4001)
        mid = 2000
        assert problem.grid.nodes()[mid] == pytest.approx(math.pi / 20.0, abs=1e-14)
        probs = likelihood_table(model, 2)[:, mid]
        np.testing.assert_allclose(probs, [0.25, 0.5, 0.25], atol=1e-12)

    def test_deterministic_outcome(self):
        _, model = dephasing_model(DephasingParams(0.0), (0.0, math.pi), 401, 1)
        probs = likelihood_table(model, 6)[:, 0]  # p1(0) = (1 - cos 0)/2 = 0
        expected = np.zeros(7)
        expected[0] = 1.0
        np.testing.assert_array_equal(probs, expected)

    def test_empty_record(self):
        _, model = noon()
        np.testing.assert_array_equal(likelihood_table(model, 0)[:, 10], [1.0])

    def test_probs_sum_to_one(self):
        _, model = field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 801, 1)
        table = likelihood_table(model, 25)
        for idx in (0, 123, 800):
            assert table[:, idx].sum() == pytest.approx(1.0, abs=1e-12)


class TestPosterior:
    def test_no_data_returns_prior(self):
        problem, model = noon(m=801)
        post = posterior(model, problem.prior, 0, 0)
        np.testing.assert_allclose(
            post.values, problem.prior.samples.values, rtol=1e-13
        )

    def test_noon_k1_shape_and_normalizer(self):
        problem, model = noon()
        post = posterior(model, problem.prior, 1, 1)
        x = problem.grid.nodes()
        # posterior is proportional to sin^2(5x); the normalizer over (0, a)
        # is (a - sin(10a)/10)/2 / a for the uniform prior
        a = A_NOON
        norm = (a - math.sin(10 * a) / 10.0) / 2.0 / a
        expected = (np.sin(5 * x) ** 2 / a) / norm
        np.testing.assert_allclose(post.values, expected, atol=1e-10)
        assert composite_simpson(post.values, post.grid.h) == pytest.approx(1.0, abs=1e-10)

    def test_all_posteriors_normalized(self):
        problem, model = field_model(
            FieldParams(math.pi / 2), (0.0, math.pi / 2), 2001, 8
        )
        for k in range(9):
            post = posterior(model, problem.prior, 8, k)
            assert composite_simpson(post.values, post.grid.h) == pytest.approx(1.0, abs=1e-10)

    def test_zero_evidence(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        model = BinaryMeasurementModel(GridFunction(grid, np.zeros(101)))
        prior = make_uniform_prior(0.0, 1.0, 101)
        with pytest.raises(ZeroEvidence):
            posterior(model, prior, 1, 1)


class TestMmseEstimates:
    def test_prior_mean_with_no_data(self):
        problem, model = noon(m=801)
        est = mmse_estimates(model, problem.prior, 0)
        assert est.shape == (1,)
        assert est[0] == pytest.approx(A_NOON / 2.0, rel=1e-12)

    def test_noon_n1_against_quadrature_oracle(self):
        # frozen from scipy.integrate.quad on sin^2(5x) moments
        problem, model = noon()
        est = mmse_estimates(model, problem.prior, 1)
        assert est[0] == pytest.approx(0.09341765544273153, abs=1e-8)
        assert est[1] == pytest.approx(0.22074160991624783, abs=1e-8)
        assert est[0] < math.pi / 20.0 < est[1]

    def test_symmetric_model_estimates_mirror(self):
        # p1(t) = sin^2(5t) satisfies p1(a - t) = 1 - p1(t) on (0, pi/10)
        problem, model = noon()
        for n in (1, 4, 9):
            est = mmse_estimates(model, problem.prior, n)
            np.testing.assert_allclose(est + est[::-1], A_NOON, atol=1e-10)

    def test_estimates_inside_support(self):
        problem, model = field_model(
            FieldParams(math.pi / 2), (0.0, math.pi / 2), 2001, 12
        )
        est = mmse_estimates(model, problem.prior, 12)
        assert est.min() >= 0.0
        assert est.max() <= math.pi / 2.0


class TestLogSpaceBayes:
    """Posterior means against Bayes' rule summed in log space."""

    @pytest.mark.parametrize("n", [1, 30, 300])
    @pytest.mark.parametrize("build", [
        lambda n: noon(n),
        lambda n: dephasing_model(DephasingParams.from_eta(0.8), (0.0, math.pi), 4001, n),
        lambda n: field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 4001, n),
    ], ids=["noon", "dephasing", "field"])
    def test_estimates_match_log_space_bayes(self, build, n):
        problem, model = build(n)
        grid = problem.grid
        x, p1 = grid.nodes(), model.p1.values
        weights = np.full(grid.m, 2.0)
        weights[1::2] = 4.0
        weights[[0, -1]] = 1.0
        k = np.arange(n + 1)[:, None]
        log_joint = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                     + xlogy(k, p1) + xlogy(n - k, 1.0 - p1)
                     + np.log(weights * grid.h / 3.0 * problem.prior.samples.values))
        log_evidence = logsumexp(log_joint, axis=1)
        means = np.exp(log_joint - log_evidence[:, None]) @ x
        live = log_evidence > math.log(1e-280)
        assert live.sum() > n // 2
        est = mmse_estimates(model, problem.prior, n)
        np.testing.assert_allclose(est[live], means[live], rtol=1e-12, atol=0)


class TestMmseMse:
    def test_no_data_risk_is_prior_variance(self):
        problem, model = noon(m=2001)
        rep = mmse_mse(model, problem.prior, 0, problem.target)
        assert rep.mse == pytest.approx(A_NOON**2 / 12.0, abs=1e-10)
        assert rep.mse == pytest.approx(0.0082247, abs=5e-8)

    def test_noon_n1_beats_both_references(self):
        problem, model = noon()
        rep = mmse_mse(model, problem.prior, 1, problem.target)
        # frozen from the quadrature oracle
        assert rep.mse == pytest.approx(0.004171822988547622, abs=1e-10)
        assert rep.mse < A_NOON**2 / 12.0  # conditioning helps
        assert rep.mse < 0.01              # below the n=1 QCRB: the failure regime

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_decomposition_identity(self, n):
        for problem, model in (
            noon(n),
            dephasing_model(DephasingParams.from_eta(0.8), (0.0, math.pi), 2001, n),
            field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 2001, n),
        ):
            direct = mmse_mse(model, problem.prior, n, problem.target).mse
            split = mse_via_decomposition(model, problem.prior, n)
            assert direct == pytest.approx(split, abs=1e-10)

    def test_non_identity_target_rejected(self):
        problem, model = noon(m=401)
        grid = problem.grid
        quad_target = TargetFunction(
            GridFunction(grid, grid.nodes() ** 2),
            GridFunction(grid, 2 * grid.nodes()),
            GridFunction(grid, np.full(grid.m, 2.0)),
        )
        with pytest.raises(DomainError):
            mmse_mse(model, problem.prior, 1, quad_target)

    def test_risk_monotone_in_measurements(self):
        for problem, model in (
            noon(m=2001),
            dephasing_model(DephasingParams.from_eta(0.6), (0.0, math.pi), 2001, 1),
            field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 2001, 1),
        ):
            risks = [
                mmse_mse(model, problem.prior, n, problem.target).mse
                for n in range(31)
            ]
            for worse, better in zip(risks, risks[1:]):
                assert better <= worse + 1e-12

    def test_obb_lower_bounds_risk(self):
        for n in (1, 3, 10, 30):
            problem, model = noon(n, m=2001)
            mse = mmse_mse(model, problem.prior, n, problem.target).mse
            assert obb_variational(problem).value <= mse + 1e-10

    def test_bias_decays_with_measurements(self):
        problem1, model = noon(1, m=2001)
        problem20, _ = noon(20, m=2001)
        b1 = mmse_mse(model, problem1.prior, 1, problem1.target).bias_curve
        b20 = mmse_mse(model, problem20.prior, 20, problem20.target).bias_curve
        assert np.max(np.abs(b20.values)) < np.max(np.abs(b1.values))

    def test_zero_evidence_outcomes_flagged(self):
        grid = ParameterGrid(0.0, 1.0, 201)
        model = BinaryMeasurementModel(GridFunction(grid, np.zeros(201)))
        prior = make_uniform_prior(0.0, 1.0, 201)
        rep = mmse_mse(model, prior, 2, TargetFunction.identity(grid))
        np.testing.assert_array_equal(rep.zero_evidence, [False, True, True])
        np.testing.assert_allclose(rep.estimates[1:], 0.5)  # prior-mean placeholder
        assert rep.mse == pytest.approx(1.0 / 12.0, abs=1e-12)
