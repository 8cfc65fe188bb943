import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp, xlogy

from qbounds import estimation
from qbounds.bounds import obb_variational
from qbounds.core import GridFunction, ParameterGrid, make_uniform_prior
from qbounds.errors import DomainError
from qbounds.estimation import (
    BinaryMeasurementModel,
    estimator_bias,
    mmse_mse,
    likelihood_table,
    mse_via_decomposition,
)
from qbounds.models import (
    DephasingParams,
    FieldParams,
    NoonParams,
    dephasing_model,
    field_model,
    noon_model,
)
from qbounds.numerics import binomial_band, log_binomial_pmf_vector, simpson_weights

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


class TestMmseEstimates:
    def test_prior_mean_with_no_data(self):
        problem, model = noon(m=801)
        est = mmse_mse(model, problem.prior, 0).estimates
        assert est.shape == (1,)
        assert est[0] == pytest.approx(A_NOON / 2.0, rel=1e-12)

    def test_noon_n1_against_quadrature_oracle(self):
        # frozen from scipy.integrate.quad on sin^2(5x) moments
        problem, model = noon()
        est = mmse_mse(model, problem.prior, 1).estimates
        assert est[0] == pytest.approx(0.09341765544273153, abs=1e-8)
        assert est[1] == pytest.approx(0.22074160991624783, abs=1e-8)
        assert est[0] < math.pi / 20.0 < est[1]

    def test_symmetric_model_estimates_mirror(self):
        # p1(t) = sin^2(5t) satisfies p1(a - t) = 1 - p1(t) on (0, pi/10)
        problem, model = noon()
        for n in (1, 4, 9):
            est = mmse_mse(model, problem.prior, n).estimates
            np.testing.assert_allclose(est + est[::-1], A_NOON, atol=1e-10)

    def test_estimates_inside_support(self):
        problem, model = field_model(
            FieldParams(math.pi / 2), (0.0, math.pi / 2), 2001, 12
        )
        est = mmse_mse(model, problem.prior, 12).estimates
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
        est = mmse_mse(model, problem.prior, n).estimates
        np.testing.assert_allclose(est[live], means[live], rtol=1e-12, atol=0)


class TestMmseMse:
    def test_no_data_risk_is_prior_variance(self):
        problem, model = noon(m=2001)
        rep = mmse_mse(model, problem.prior, 0)
        assert rep.mse == pytest.approx(A_NOON**2 / 12.0, abs=1e-10)
        assert rep.mse == pytest.approx(0.0082247, abs=5e-8)

    def test_noon_n1_beats_both_references(self):
        problem, model = noon()
        rep = mmse_mse(model, problem.prior, 1)
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
            direct = mmse_mse(model, problem.prior, n).mse
            split = mse_via_decomposition(model, problem.prior, n)
            assert direct == pytest.approx(split, abs=1e-10)

    def test_risk_monotone_in_measurements(self):
        for problem, model in (
            noon(m=2001),
            dephasing_model(DephasingParams.from_eta(0.6), (0.0, math.pi), 2001, 1),
            field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 2001, 1),
        ):
            risks = [
                mmse_mse(model, problem.prior, n).mse
                for n in range(31)
            ]
            for worse, better in zip(risks, risks[1:]):
                assert better <= worse + 1e-12

    def test_obb_lower_bounds_risk(self):
        for n in (1, 3, 10, 30):
            problem, model = noon(n, m=2001)
            mse = mmse_mse(model, problem.prior, n).mse
            assert obb_variational(problem).value <= mse + 1e-10

    def test_bias_decays_with_measurements(self):
        problem1, model = noon(1, m=2001)
        problem20, _ = noon(20, m=2001)
        b1 = estimator_bias(model, mmse_mse(model, problem1.prior, 1).estimates)
        b20 = estimator_bias(model, mmse_mse(model, problem20.prior, 20).estimates)
        assert np.max(np.abs(b20.values)) < np.max(np.abs(b1.values))

    def test_estimator_bias_needs_an_estimate(self):
        _, model = noon(m=101)
        with pytest.raises(DomainError, match="estimate for each outcome"):
            estimator_bias(model, np.empty(0))

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_repetition_count_rejected(self, n):
        problem, model = noon(m=101)
        with pytest.raises(DomainError, match="repetition count"):
            mmse_mse(model, problem.prior, n)

    def test_zero_evidence_outcomes_flagged(self):
        grid = ParameterGrid(0.0, 1.0, 201)
        model = BinaryMeasurementModel(GridFunction(grid, np.zeros(201)))
        prior = make_uniform_prior(0.0, 1.0, 201)
        rep = mmse_mse(model, prior, 2)
        np.testing.assert_array_equal(rep.zero_evidence, [False, True, True])
        np.testing.assert_allclose(rep.estimates[1:], 0.5)  # prior-mean placeholder
        assert rep.mse == pytest.approx(1.0 / 12.0, abs=1e-12)


def dense_route(model, prior, n):
    """(estimates, zero-evidence mask, evidence, E[x_hat | x]) from the full table."""
    x = model.grid.nodes()
    wp = simpson_weights(model.grid.m, model.grid.h) * prior.samples.values
    like = likelihood_table(model, n)
    evidence = like @ wp
    zero = evidence <= 0.0
    estimates = np.where(zero, wp @ x, (like @ (wp * x)) / np.where(zero, 1.0, evidence))
    return estimates, zero, evidence, estimates @ like


def long_double_risk(model, prior, n):
    """Bayes risk summed cell by cell over the dense table in long double."""
    like = likelihood_table(model, n).astype(np.longdouble)
    x = model.grid.nodes().astype(np.longdouble)
    wp = simpson_weights(model.grid.m, model.grid.h) * prior.samples.values
    joint = like * wp.astype(np.longdouble)
    evidence = joint.sum(axis=1)
    live = evidence > 0
    estimates = np.where(live, (joint * x).sum(axis=1) / np.where(live, evidence, 1), 0)
    return float((joint * (x - estimates[:, None]) ** 2).sum())


BUILDERS = {
    "noon": lambda m: noon_model(NoonParams(10), (0.0, A_NOON), m, 1),
    # p1 = sin^2(20 x) is not monotone on (0, pi/10): every outcome's band
    # splits into separate runs of columns
    "noon-40": lambda m: noon_model(NoonParams(40), (0.0, A_NOON), m, 1),
    "dephasing-1.0": lambda m: dephasing_model(DephasingParams.from_eta(1.0),
                                               (0.0, math.pi), m, 1),
    "dephasing-0.8": lambda m: dephasing_model(DephasingParams.from_eta(0.8),
                                               (0.0, math.pi), m, 1),
    "field": lambda m: field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), m, 1),
}
# p = 0, 1, 1/2, the smallest subnormal and normal, and values next to them
SPECIAL_P = [0.0, 1.0, 0.5, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
             1e-20, 1.0 - 2.0**-53, 1.0 - 1e-16, 0.5 - 2.0**-54, 0.5 + 2.0**-53]


class TestBandedLikelihood:
    """The banded MMSE routes against the dense likelihood table."""

    @given(
        n=st.integers(0, 5000),
        p1=st.lists(st.one_of(st.sampled_from(SPECIAL_P), st.floats(0.0, 1.0)),
                    min_size=1, max_size=6),
    )
    # at k = 0 and k = n the bound is exact: p = 5e-324 gives a cell of e^-744.4
    # at n = 1, and p = e^-372.53 one of e^-745.06 at n = 2, both nonzero
    @example(n=1, p1=[5e-324, 1.0 - 2.0**-53])
    @example(n=2, p1=[math.exp(-372.53), 1.0 - math.exp(-372.53)])
    @example(n=0, p1=[0.0, 0.5, 1.0])
    @example(n=5000, p1=[0.0, 1e-300, 0.5, 1.0])
    @settings(max_examples=150, deadline=None)
    def test_cells_outside_the_band_are_zero(self, n, p1):
        p1 = np.array(p1)
        lo, hi = binomial_band(n, p1)
        dense = log_binomial_pmf_vector(n, p1)
        k = np.arange(n + 1)[:, None]
        assert np.all(dense[(k < lo) | (k > hi)] == 0.0)
        assert np.all((0 <= lo) & (lo <= hi) & (hi <= n))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def dense_oracle(example, n, m):
        """(estimates, zero mask, evidence, bias curve, risk) from the dense table."""
        problem, model = BUILDERS[example](m)
        estimates, zero, evidence, conditional_mean = dense_route(model, problem.prior, n)
        return (estimates, zero, evidence, conditional_mean - problem.grid.nodes(),
                mse_via_decomposition(model, problem.prior, n))

    def assert_matches_dense_route(self, example, n, m):
        problem, model = BUILDERS[example](m)
        estimates, zero, evidence, bias, mse = self.dense_oracle(example, n, m)
        rep = mmse_mse(model, problem.prior, n)
        np.testing.assert_array_equal(rep.zero_evidence, zero)
        live = evidence > 1e-280
        np.testing.assert_allclose(rep.estimates[live], estimates[live], rtol=1e-12, atol=0)
        assert rep.mse == pytest.approx(mse, rel=1e-12)
        np.testing.assert_allclose(estimator_bias(model, rep.estimates).values, bias,
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("m", [3, 5, 4001])
    @pytest.mark.parametrize("n", [0, 1, 2, 30, 300, 3000])
    @pytest.mark.parametrize("example", BUILDERS)
    def test_matches_dense_route(self, example, n, m):
        self.assert_matches_dense_route(example, n, m)

    @pytest.mark.parametrize("m", [3, 5, 4001])
    @pytest.mark.parametrize("n", [0, 1, 2, 30, 300, 3000])
    @pytest.mark.parametrize("example", ["noon", "noon-40", "dephasing-0.8", "field"])
    @pytest.mark.parametrize("budget", ["column", "table"])
    def test_one_pass_merge_matches_dense_route(self, monkeypatch, budget, example, n, m):
        # one column per block merges each outcome's spread up to m times;
        # a budget of the whole table leaves one block and no merge
        monkeypatch.setattr(estimation, "_BLOCK_CELLS", 1 if budget == "column" else (n + 1) * m)
        self.assert_matches_dense_route(example, n, m)

    @pytest.mark.parametrize("n, m", [(1, 5), (30, 5), (300, 5), (1, 4001), (30, 4001),
                                      (300, 4001), (3000, 4001)])
    @pytest.mark.parametrize("example", ["noon", "noon-40", "dephasing-0.8", "field"])
    def test_risk_matches_long_double_sum(self, example, n, m):
        # relative only, so that the tiny risks of grid 5 count: there the
        # posteriors are narrower than the grid spacing, and a spread taken
        # about the block's middle node would cancel
        problem, model = BUILDERS[example](m)
        ref = long_double_risk(model, problem.prior, n)
        assert mmse_mse(model, problem.prior, n).mse == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("budget", [None, 1])
    def test_blocks_tile_columns_at_one_width(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(estimation, "_BLOCK_CELLS", budget)
        n, m = 3000, 4001
        _, model = BUILDERS["noon"](m)
        lo, hi = binomial_band(n, model.p1.values)
        width = max(1, estimation._BLOCK_CELLS // int((hi - lo).max() + 1))
        blocks = list(estimation._likelihood_blocks(model, n))
        columns = [np.arange(m)[cols] for cols, _, _ in blocks]
        np.testing.assert_array_equal(np.concatenate(columns), np.arange(m))
        assert all(c.size == width for c in columns[:-1])
        assert 1 <= columns[-1].size <= width
        for c, (_, k_lo, block) in zip(columns, blocks):
            assert block.shape[1] == c.size
            assert k_lo <= lo[c].min() and hi[c].max() <= k_lo + len(block) - 1

    def test_large_tables_span_several_blocks(self):
        _, model = BUILDERS["noon"](4001)
        assert len(list(estimation._likelihood_blocks(model, 3000))) > 1

    @pytest.mark.parametrize("budget", [1, 64, 5000])
    @pytest.mark.parametrize("example", ["noon", "dephasing-0.8"])
    def test_block_budget_moves_only_rounding(self, monkeypatch, example, budget):
        # budget 1 leaves one column per block, longer than the budget
        problem, model = BUILDERS[example](401)
        prior = problem.prior
        ref = mmse_mse(model, prior, 300)
        bias_ref = estimator_bias(model, ref.estimates).values
        monkeypatch.setattr(estimation, "_BLOCK_CELLS", budget)
        assert len(list(estimation._likelihood_blocks(model, 300))) > 1
        rep = mmse_mse(model, prior, 300)
        np.testing.assert_array_equal(rep.zero_evidence, ref.zero_evidence)
        live = ~ref.zero_evidence
        np.testing.assert_allclose(rep.estimates[live], ref.estimates[live],
                                   rtol=1e-12, atol=0)
        assert rep.mse == pytest.approx(ref.mse, rel=1e-12)
        np.testing.assert_allclose(estimator_bias(model, rep.estimates).values, bias_ref,
                                   rtol=0, atol=1e-12)
