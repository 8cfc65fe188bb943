import functools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp, xlogy

from qbounds import numerics
from qbounds.bounds import obb_variational
from qbounds.core import GridFunction, ParameterGrid, make_uniform_prior
from qbounds.errors import DomainError
from qbounds.estimation import (
    BinaryMeasurementModel,
    estimator_bias,
    mmse_mse,
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
from qbounds.numerics import likelihood_blocks, log_binomial_pmf_vector, simpson_weights

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
        probs = log_binomial_pmf_vector(2, model.p1.values)[:, mid]
        np.testing.assert_allclose(probs, [0.25, 0.5, 0.25], atol=1e-12)

    def test_deterministic_outcome(self):
        _, model = dephasing_model(DephasingParams(0.0), (0.0, math.pi), 401, 1)
        # p1(0) = (1 - cos 0)/2 = 0
        probs = log_binomial_pmf_vector(6, model.p1.values)[:, 0]
        expected = np.zeros(7)
        expected[0] = 1.0
        np.testing.assert_array_equal(probs, expected)

    def test_empty_record(self):
        _, model = noon()
        probs = log_binomial_pmf_vector(0, model.p1.values)[:, 10]
        np.testing.assert_array_equal(probs, [1.0])

    def test_probs_sum_to_one(self):
        _, model = field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 801, 1)
        table = log_binomial_pmf_vector(25, model.p1.values)
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

    @pytest.mark.parametrize("n", [1, 30, 300, 3000])
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
        log_wp = np.log(weights * grid.h / 3.0 * problem.prior.samples.values)
        means, log_evidence, top = np.empty((3, n + 1))
        # 500 outcomes at a time keep the n = 3000 tables near 16 MB each
        for k in np.array_split(np.arange(n + 1), 1 + n // 500):
            log_pmf = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))[:, None] \
                + xlogy(k[:, None], p1) + xlogy(n - k[:, None], 1.0 - p1)
            log_joint = log_pmf + log_wp
            log_evidence[k] = logsumexp(log_joint, axis=1)
            means[k] = np.exp(log_joint - log_evidence[k, None]) @ x
            top[k] = log_pmf.max(axis=1)
        live = log_evidence > math.log(1e-280)
        assert live.sum() > n // 2
        rep = mmse_mse(model, problem.prior, n)
        np.testing.assert_allclose(rep.estimates[live], means[live], rtol=1e-12, atol=0)
        # an outcome is flagged only when every one of its cells is below the floor
        assert np.all(top[rep.zero_evidence] < numerics._LOG_FLOOR)


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
        b1 = estimator_bias(model, problem1.prior, 1)
        b20 = estimator_bias(model, problem20.prior, 20)
        assert np.max(np.abs(b20.values)) < np.max(np.abs(b1.values))

    @pytest.mark.parametrize("route", [mmse_mse, estimator_bias, mse_via_decomposition])
    @pytest.mark.parametrize("n", [-1, -2, 2.5, math.nan])
    def test_negative_repetition_count_rejected(self, n, route):
        # a fractional or nan n raised numpy's TypeError or IndexError
        problem, model = noon(m=101)
        with pytest.raises(DomainError, match="repetition count must be an integer >= 0"):
            route(model, problem.prior, n)

    def test_integral_float_repetition_count_accepted(self):
        # 2.0 counts as 2, as NoonParams(10.0) counts as N = 10
        problem, model = noon(m=101)
        as_int, as_float = (mmse_mse(model, problem.prior, n) for n in (2, 2.0))
        np.testing.assert_array_equal(as_float.estimates, as_int.estimates)
        np.testing.assert_array_equal(as_float.zero_evidence, as_int.zero_evidence)
        assert as_float.mse == as_int.mse
        np.testing.assert_array_equal(estimator_bias(model, problem.prior, 2.0).values,
                                      estimator_bias(model, problem.prior, 2).values)
        assert (mse_via_decomposition(model, problem.prior, 2.0)
                == mse_via_decomposition(model, problem.prior, 2))
        for (c1, r1, b1), (c2, r2, b2) in zip(likelihood_blocks(2.0, model.p1.values),
                                              likelihood_blocks(2, model.p1.values)):
            assert (c1, r1) == (c2, r2)
            np.testing.assert_array_equal(b1, b2)

    @pytest.mark.parametrize("route", [mmse_mse, estimator_bias, mse_via_decomposition])
    def test_model_and_prior_on_other_grids_rejected(self, route):
        _, model = noon(m=101)
        other, _ = noon(m=103)
        with pytest.raises(DomainError, match="share one grid"):
            route(model, other.prior, 1)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_p1_outside_unit_interval_rejected(self, bad):
        values = [0.1, bad, 0.3, 0.4, 0.5]
        with pytest.raises(DomainError, match=r"p1 samples must lie in \[0, 1\]"):
            BinaryMeasurementModel(GridFunction(ParameterGrid(0.0, 1.0, 5), values))

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
    like = log_binomial_pmf_vector(n, model.p1.values)
    evidence = like @ wp
    zero = evidence <= 0.0
    estimates = np.where(zero, wp @ x, (like @ (wp * x)) / np.where(zero, 1.0, evidence))
    return estimates, zero, evidence, estimates @ like


def walk_weights(problem):
    """The (m, 2) columns [wp, wp x] that mmse_mse and estimator_bias walk with."""
    x = problem.grid.nodes()
    wp = simpson_weights(problem.grid.m, problem.grid.h) * problem.prior.samples.values
    return np.column_stack([wp, wp * x])


def long_double_risk(model, prior, n):
    """Bayes risk summed cell by cell over the dense table in long double."""
    like = log_binomial_pmf_vector(n, model.p1.values).astype(np.longdouble)
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
P1_SAMPLES = st.lists(st.one_of(st.sampled_from(SPECIAL_P), st.floats(0.0, 1.0)),
                      min_size=1, max_size=6)


class TestScipyFreeKernels:
    """numerics' lgamma table against the scipy.special formula it replaces."""

    @pytest.mark.parametrize("n", [0, 1, 30, 3000, 200000])
    def test_log_binomial_coefficients_match_gammaln(self, n):
        k = np.arange(n + 1, dtype=float)
        reference = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        error = np.abs(numerics._log_binomial_coefficients(n) - reference)
        assert error.max() <= 4 * np.spacing(gammaln(n + 1))


def band(n, p1):
    """Per column, the first and last row the walk keeps."""
    return numerics._band(*numerics._column_terms(n, p1))


class TestBandedLikelihood:
    """The banded MMSE routes against the dense likelihood table."""

    def test_floor_is_normal(self):
        assert np.exp(numerics._LOG_FLOOR) >= sys.float_info.min

    @given(n=st.integers(0, 5000), p1=P1_SAMPLES)
    @example(n=2, p1=[math.exp(-354.19), math.exp(-354.21)])
    @settings(max_examples=150, deadline=None)
    def test_cells_are_zero_or_normal(self, n, p1):
        dense = log_binomial_pmf_vector(n, np.array(p1))
        assert np.all((dense == 0.0) | (dense >= sys.float_info.min))

    # A block skips the flush where its end rows allow, and may hold cells
    # outside some of its columns' bands; its cells are the dense table's
    # either way. A ramp across 1/2 gives blocks with both mirror runs.
    @given(n=st.integers(0, 5000), ramp=st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0),
                                                  st.integers(2, 120)),
           p1=P1_SAMPLES, budget=st.integers(1, 1 << 16), min_width=st.integers(1, 16))
    @example(n=2, ramp=(0.0, 1.0, 2), p1=[math.exp(-354.19), math.exp(-354.21)],
             budget=1, min_width=1)
    @settings(max_examples=150, deadline=None)
    def test_blocks_are_the_dense_table(self, n, ramp, p1, budget, min_width):
        p1 = np.concatenate([p1, np.linspace(*ramp)])
        dense = log_binomial_pmf_vector(n, p1)
        covered = np.zeros(dense.shape, dtype=bool)
        columns = []
        with mock.patch.multiple(numerics, _BLOCK_CELLS=budget, _BLOCK_MIN_WIDTH=min_width):
            for cols, rows, block in likelihood_blocks(n, p1):
                np.testing.assert_array_equal(block, dense[rows, cols])
                covered[rows, cols] = True
                columns.append(np.arange(p1.size)[cols])
        np.testing.assert_array_equal(np.concatenate(columns), np.arange(p1.size))
        assert np.all(dense[~covered] == 0.0)

    def test_band_of_no_columns(self):
        for edge in band(3, np.array([])):
            assert edge.shape == (0,) and edge.dtype.kind == "i"

    def test_walk_of_no_columns(self):
        # the dense table of no columns is (n + 1) x 0; its walk yields no
        # block, after checking n as every walk does
        assert log_binomial_pmf_vector(5, np.array([])).shape == (6, 0)
        assert list(likelihood_blocks(5, np.array([]))) == []
        with pytest.raises(DomainError):
            next(likelihood_blocks(-1, np.array([])))

    @given(n=st.integers(0, 5000), p1=P1_SAMPLES)
    # cells just above the floor (-708.396) at k = 0 and k = n, which the band
    # must keep: p = e^-708.39 gives a cell of e^-708.39 at n = 1, and
    # p = e^-354.19 one of e^-708.38 at n = 2
    @example(n=1, p1=[math.exp(-708.39), 1.0 - 2.0**-53])
    @example(n=2, p1=[math.exp(-354.19), 1.0 - math.exp(-354.19)])
    @example(n=0, p1=[0.0, 0.5, 1.0])
    @example(n=5000, p1=[0.0, 1e-300, 0.5, 1.0])
    @settings(max_examples=150, deadline=None)
    def test_cells_outside_the_band_are_zero(self, n, p1):
        p1 = np.array(p1)
        lo, hi = band(n, p1)
        dense = log_binomial_pmf_vector(n, p1)
        k = np.arange(n + 1)[:, None]
        assert np.all(dense[(k < lo) | (k > hi)] == 0.0)
        assert np.all((0 <= lo) & (lo <= hi) & (hi <= n))

    @staticmethod
    def assert_column_slices_match(n, p1, width):
        """Every run of width columns reads its dense table's columns to the bit."""
        dense = log_binomial_pmf_vector(n, p1)
        for a in range(0, p1.size, width):
            np.testing.assert_array_equal(
                log_binomial_pmf_vector(n, p1[a:a + width]), dense[:, a:a + width])

    # A block's cells must not depend on its shape: BLAS may sum the edge
    # columns of a product in another order than the rest, and only a cell
    # of two nonzero terms rounds alike in every order. A ramp across 1/2
    # gives blocks with both mirror runs.
    @given(n=st.integers(0, 5000), ramp=st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0),
                                                  st.integers(2, 120)),
           p1=P1_SAMPLES, width=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_cells_do_not_depend_on_block_shape(self, n, ramp, p1, width):
        self.assert_column_slices_match(n, np.concatenate([np.linspace(*ramp), p1]), width)

    # the 349-column slices of assert_band_is_exact at n = 3000
    @pytest.mark.parametrize("example", ["noon", "field"])
    def test_cells_do_not_depend_on_block_shape_on_models(self, example):
        _, model = BUILDERS[example](4001)
        self.assert_column_slices_match(3000, model.p1.values, 349)

    @staticmethod
    def assert_band_is_exact(n, p1):
        """The band is the first and last row whose log-cell, computed for every
        row in the kernel's order, is at or above the edge, and every row in
        between is kept; the kernel's cells are the exp of those log-cells."""
        _, _, mirror, log_odds, log_q0 = numerics._column_terms(n, p1)
        lo, hi = band(n, p1)
        k = np.arange(n + 1)[:, None]
        step = max(1, (1 << 20) // (n + 1))  # columns at a time, to bound memory
        for a in range(0, p1.size, step):
            cols = slice(a, a + step)
            kk = np.where(mirror[cols], n - k, k)
            with np.errstate(over="ignore"):
                cells = (kk * log_odds[cols] + log_q0[cols]
                         + numerics._log_binomial_coefficients(n)[kk])
            np.testing.assert_array_equal(
                log_binomial_pmf_vector(n, p1[cols]),
                np.exp(np.where(cells < numerics._LOG_FLOOR, -np.inf, cells)))
            keep = cells >= numerics._LOG_BAND_EDGE
            first, last = keep.argmax(axis=0), n - keep[::-1].argmax(axis=0)
            np.testing.assert_array_equal(lo[cols], first)
            np.testing.assert_array_equal(hi[cols], last)
            np.testing.assert_array_equal(keep.sum(axis=0), last - first + 1)

    # the kept cells, and so the work of every banded walk, depend on the band
    @pytest.mark.parametrize("n", [1, 30, 2000, 3000])
    @pytest.mark.parametrize("example", ["noon", "dephasing-1.0", "dephasing-0.8", "field"])
    def test_band_is_exact_on_models(self, example, n):
        _, model = BUILDERS[example](4001)
        self.assert_band_is_exact(n, model.p1.values)

    @pytest.mark.parametrize("n", [0, 1, 2, 30, 2000, 3000, 5000])
    def test_band_is_exact_on_special_p(self, n):
        self.assert_band_is_exact(n, np.array(SPECIAL_P))

    # where the edge's margin covers the rounding of O(n log n) terms
    @pytest.mark.parametrize("n", [200000, 1000000])
    def test_band_is_exact_at_large_n(self, n):
        p1 = np.array([0.0, 1e-300, 1e-6, 0.3, 0.5, 0.5 + 2.0**-53, 1.0 - 1e-4, 1.0])
        self.assert_band_is_exact(n, p1)

    # p1 exactly 0 (x = 0) or 1 (x = pi, a mirrored column) leaves one cell,
    # kk = 0, and _band sets that column's band without bisecting it: it must
    # be the first and last row that the edge, the band's own or a cut's, keeps
    @pytest.mark.parametrize("n, cut", [(1, False), (30, False), (3000, False), (3000, True)])
    def test_band_of_certain_columns(self, n, cut):
        problem, model = BUILDERS["dephasing-1.0"](401)
        p1 = model.p1.values
        assert p1[0] == 0.0 and p1[-1] == 1.0
        terms = numerics._column_terms(n, p1)
        edge = numerics._cut_edge(n, p1, walk_weights(problem), *terms[2:]) if cut else None
        assert (edge is not None) == cut
        lo, hi = numerics._band(*terms, edge)
        _, _, mirror, log_odds, log_q0 = terms
        k = np.arange(n + 1)[:, None]
        cells = numerics._log_cells(n, np.where(mirror, n - k, k), log_odds, log_q0)
        keep = cells >= (numerics._LOG_BAND_EDGE if edge is None else edge[:, None])
        np.testing.assert_array_equal(lo, keep.argmax(axis=0))
        np.testing.assert_array_equal(hi, n - keep[::-1].argmax(axis=0))
        assert (lo[0], hi[0], lo[-1], hi[-1]) == (0, 0, n, n)

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
        np.testing.assert_allclose(estimator_bias(model, problem.prior, n).values, bias,
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
        monkeypatch.setattr(numerics, "_BLOCK_CELLS", 1 if budget == "column" else (n + 1) * m)
        monkeypatch.setattr(numerics, "_BLOCK_MIN_WIDTH", 1)
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

    # budget 1 sizes every block at the floor of 16 columns
    @pytest.mark.parametrize("budget", [None, 1])
    def test_blocks_tile_columns_at_one_width(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(numerics, "_BLOCK_CELLS", budget)
        n, m = 3000, 4001
        _, model = BUILDERS["noon"](m)
        lo, hi = band(n, model.p1.values)
        width = max(16, numerics._BLOCK_CELLS // int((hi - lo).max() + 1))
        blocks = list(likelihood_blocks(n, model.p1.values))
        columns = [np.arange(m)[cols] for cols, _, _ in blocks]
        np.testing.assert_array_equal(np.concatenate(columns), np.arange(m))
        assert all(c.size == width for c in columns[:-1])
        assert 1 <= columns[-1].size <= width
        for c, (_, rows, block) in zip(columns, blocks):
            assert block.shape == (rows.stop - rows.start, c.size)
            assert rows.start <= lo[c].min() and hi[c].max() < rows.stop

    def test_column_terms_run_once_per_walk(self, monkeypatch):
        # the band and every block of one walk share one _column_terms call
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        original = numerics._column_terms
        monkeypatch.setattr(numerics, "_column_terms", counted)
        problem, model = BUILDERS["noon"](4001)
        assert len(list(likelihood_blocks(3000, model.p1.values))) > 1
        calls.clear()
        mmse_mse(model, problem.prior, 3000)
        assert len(calls) == 1
        calls.clear()
        estimator_bias(model, problem.prior, 3000)  # two walks
        assert len(calls) == 2

    def test_large_tables_span_several_blocks(self):
        _, model = BUILDERS["noon"](4001)
        assert len(list(likelihood_blocks(3000, model.p1.values))) > 1

    @staticmethod
    def assert_skipped_cells_are_negligible(n, p1, weights):
        """Outside the blocks of the walk with these weights, the dense table's
        cells carry at most 2^-60 of each outcome's |weights|-weighted sums and
        of each column's sum over outcomes; returns those sums."""
        table = log_binomial_pmf_vector(n, p1)
        u = np.abs(weights)
        sums, mass = table @ u, table.sum(axis=0)
        for cols, rows, block in likelihood_blocks(n, p1, weights):
            np.testing.assert_array_equal(block, table[rows, cols])
            table[rows, cols] = 0.0
        # scaled up, not down, so that no bound underflows
        assert np.all((table @ u) * 2.0**60 <= sums)
        assert np.all(table.sum(axis=0) * 2.0**60 <= mass)
        return sums

    @pytest.mark.parametrize("m", [3, 5, 401, 4001])
    @pytest.mark.parametrize("n", [0, 1, 30, 300, 3000])
    @pytest.mark.parametrize("example", BUILDERS)
    def test_weighted_walk_skips_only_negligible_cells(self, example, n, m):
        problem, model = BUILDERS[example](m)
        sums = self.assert_skipped_cells_are_negligible(n, model.p1.values,
                                                        walk_weights(problem))
        # the products of the dense route's evidence, so its zero-evidence mask
        np.testing.assert_array_equal(mmse_mse(model, problem.prior, n).zero_evidence,
                                      sums[:, 0] <= 0.0)

    # the span's rows go 2^14 at a time
    @pytest.mark.parametrize("example", ["noon", "field"])
    def test_weighted_walk_skips_only_negligible_cells_at_large_n(self, example):
        problem, model = BUILDERS[example](101)
        self.assert_skipped_cells_are_negligible(40000, model.p1.values, walk_weights(problem))
        cells = [sum(block.size for _, _, block in likelihood_blocks(40000, model.p1.values, w))
                 for w in (None, walk_weights(problem))]
        assert cells[1] < cells[0]

    # On a coarse grid the cut bands are narrow against their drift across a
    # chunk of columns: the width halves until no block holds over twice the
    # budget, or the width is at its floor.
    @pytest.mark.parametrize("m, n", [(101, 3000), (101, 40000), (401, 3000), (4001, 3000)])
    @pytest.mark.parametrize("example", ["noon", "dephasing-0.8", "field"])
    def test_blocks_hold_at_most_twice_the_budget(self, example, m, n):
        problem, model = BUILDERS[example](m)
        for weights in (None, walk_weights(problem)):
            sizes = [(cols.stop - cols.start, block.size)
                     for cols, _, block in likelihood_blocks(n, model.p1.values, weights)]
            assert (sizes[0][0] == numerics._BLOCK_MIN_WIDTH
                    or max(size for _, size in sizes) <= 2 * numerics._BLOCK_CELLS)

    def test_width_halves_where_cut_bands_drift_apart(self):
        problem, model = BUILDERS["noon"](401)
        n, p1, weights = 3000, model.p1.values, walk_weights(problem)
        terms = numerics._column_terms(n, p1)
        lo, hi = numerics._band(*terms, numerics._cut_edge(n, p1, weights, *terms[2:]))
        widest = max(16, numerics._BLOCK_CELLS // int((hi - lo).max() + 1))
        cols, _, _ = next(likelihood_blocks(n, p1, weights))
        assert cols.stop - cols.start == widest // 2

    # where the weighted walk skips cells: the dense-route tolerances at 401 nodes
    @pytest.mark.parametrize("n", [300, 3000])
    @pytest.mark.parametrize("example", BUILDERS)
    def test_matches_dense_route_on_401_nodes(self, example, n):
        self.assert_matches_dense_route(example, n, 401)

    # a prior that vanishes at some nodes, and nodes x of both signs
    @given(n=st.integers(0, 5000), ramp=st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0),
                                                  st.integers(2, 120)),
           p1=P1_SAMPLES, data=st.data())
    @example(n=3000, ramp=(0.0, 1.0, 101), p1=[0.5], data=None)
    @settings(max_examples=100, deadline=None)
    def test_vanishing_prior_never_drops_a_needed_cell(self, n, ramp, p1, data):
        p1 = np.concatenate([np.linspace(*ramp), p1])
        if data is None:
            density = np.ones(p1.size)
        else:
            density = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-300, 1.0])
                                                  | st.floats(0.0, 1.0),
                                                  min_size=p1.size, max_size=p1.size)))
        x = np.linspace(-1.0, 2.0, p1.size)
        self.assert_skipped_cells_are_negligible(n, p1, np.column_stack([density,
                                                                         density * x]))

    def test_unbounded_evidence_keeps_the_whole_band(self):
        # outcome 1500's largest cells are at p1 = 1/2 and its grid neighbours,
        # where the prior is 0: no candidate bounds its evidence, so the span is
        # inf and the walk is the unweighted one
        n, p1 = 3000, np.linspace(0.0, 1.0, 401)
        wp = np.ones(p1.size)
        wp[199:202] = 0.0
        assert numerics._cut_edge(n, p1, np.column_stack([wp, wp]),
                                  *numerics._column_terms(n, p1)[2:]) is None
        uniform = np.column_stack([np.ones(p1.size)] * 2)
        assert numerics._cut_edge(n, p1, uniform, *numerics._column_terms(n, p1)[2:]) is not None
        # so are weights, or their sums, past the double range
        for big in (np.inf, 1e306):
            assert numerics._cut_edge(n, p1, uniform * big,
                                      *numerics._column_terms(n, p1)[2:]) is None

    @pytest.mark.parametrize("n", [0, 1, 30, int(numerics._CUT_FROM * numerics._CUT_NATS)])
    @pytest.mark.parametrize("example", BUILDERS)
    def test_walk_below_the_gate_is_the_unweighted_walk(self, example, n):
        problem, model = BUILDERS[example](4001)
        weighted = likelihood_blocks(n, model.p1.values, walk_weights(problem))
        for (c1, r1, b1), (c2, r2, b2) in zip(weighted, likelihood_blocks(n, model.p1.values),
                                              strict=True):
            assert (c1, r1) == (c2, r2)
            np.testing.assert_array_equal(b1, b2)

    def test_weighted_walk_keeps_fewer_cells_at_large_n(self):
        problem, model = BUILDERS["noon"](4001)
        cells = [sum(block.size for _, _, block in likelihood_blocks(3000, model.p1.values, w))
                 for w in (None, walk_weights(problem))]
        assert cells[1] < cells[0] / 2

    @pytest.mark.parametrize("n, m", [(0, 5), (1, 4001), (300, 401), (3000, 4001)])
    @pytest.mark.parametrize("example", ["noon", "dephasing-0.8", "field"])
    def test_bias_curve_averages_the_mmse_estimates(self, example, n, m):
        # the bias walk sums the estimates as mmse_mse does, to the bit, over
        # the blocks of the weights both walk with
        problem, model = BUILDERS[example](m)
        estimates = mmse_mse(model, problem.prior, n).estimates
        conditional_mean = np.empty(m)
        for cols, rows, block in likelihood_blocks(n, model.p1.values, walk_weights(problem)):
            conditional_mean[cols] = estimates[rows] @ block
        np.testing.assert_array_equal(estimator_bias(model, problem.prior, n).values,
                                      conditional_mean - problem.grid.nodes())

    @pytest.mark.parametrize("budget", [1, 64, 5000])
    @pytest.mark.parametrize("example", ["noon", "dephasing-0.8"])
    def test_block_budget_moves_only_rounding(self, monkeypatch, example, budget):
        # budget 1 leaves one column per block, longer than the budget
        problem, model = BUILDERS[example](401)
        prior = problem.prior
        ref = mmse_mse(model, prior, 300)
        bias_ref = estimator_bias(model, prior, 300).values
        monkeypatch.setattr(numerics, "_BLOCK_CELLS", budget)
        monkeypatch.setattr(numerics, "_BLOCK_MIN_WIDTH", 1)
        assert len(list(likelihood_blocks(300, model.p1.values))) > 1
        rep = mmse_mse(model, prior, 300)
        np.testing.assert_array_equal(rep.zero_evidence, ref.zero_evidence)
        live = ~ref.zero_evidence
        np.testing.assert_allclose(rep.estimates[live], ref.estimates[live],
                                   rtol=1e-12, atol=0)
        assert rep.mse == pytest.approx(ref.mse, rel=1e-12)
        np.testing.assert_allclose(estimator_bias(model, prior, 300).values, bias_ref,
                                   rtol=0, atol=1e-12)
