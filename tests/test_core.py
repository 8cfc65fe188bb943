import math

import numpy as np
import pytest

from qbounds.core import (
    EstimationProblem,
    GridFunction,
    ParameterGrid,
    PriorDensity,
    QfiProfile,
    TargetFunction,
    make_uniform_prior,
)
from qbounds.errors import (
    GridMismatch,
    InvalidGrid,
    InvalidSupport,
    NonPositiveQfi,
    UnnormalizedPrior,
)
from qbounds.numerics import composite_simpson


class TestParameterGrid:
    def test_node_positions_reproducible(self):
        grid = ParameterGrid(0.25, 1.75, 301)
        x = grid.nodes()
        for i in (0, 1, 150, 299, 300):
            assert x[i] == pytest.approx(0.25 + i * grid.h, abs=1e-15)
        assert x[-1] == pytest.approx(1.75, abs=np.finfo(float).eps * 2)

    def test_reversed_support(self):
        with pytest.raises(InvalidSupport):
            ParameterGrid(1.0, 1.0, 11)

    @pytest.mark.parametrize("m", [2, 4, 1000, 1])
    def test_bad_node_counts(self, m):
        with pytest.raises(InvalidGrid):
            ParameterGrid(0.0, 1.0, m)


class TestUniformPrior:
    def test_unit_interval(self):
        prior = make_uniform_prior(0.0, 1.0, 3)
        np.testing.assert_array_equal(prior.samples.values, np.ones(3))

    def test_noon_support(self):
        prior = make_uniform_prior(0.0, math.pi / 10.0, 4001)
        np.testing.assert_allclose(prior.samples.values, 10.0 / math.pi, rtol=1e-15)

    def test_simpson_normalization_exact(self):
        prior = make_uniform_prior(0.0, math.pi, 2001)
        total = composite_simpson(prior.samples.values, prior.grid.h)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidSupport):
            make_uniform_prior(1.0, 0.0, 11)
        with pytest.raises(InvalidGrid):
            make_uniform_prior(0.0, 1.0, 4)

    def test_scaled_prior_rejected(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        with pytest.raises(UnnormalizedPrior):
            PriorDensity(GridFunction(grid, 2.0 * np.ones(11)))


class TestTargetFunction:
    def test_identity_exact(self):
        grid = ParameterGrid(0.0, 2.0, 41)
        t = TargetFunction.identity(grid)
        np.testing.assert_array_equal(t.f.values, grid.nodes())
        np.testing.assert_array_equal(t.f_prime.values, 1.0)
        np.testing.assert_array_equal(t.f_double_prime.values, 0.0)

    def test_finite_difference_fallback(self):
        grid = ParameterGrid(0.0, 1.0, 2001)
        t = TargetFunction.from_samples(
            GridFunction(grid, grid.nodes() ** 3)
        )
        x = grid.nodes()
        np.testing.assert_allclose(t.f_prime.values, 3 * x**2, atol=1e-5)
        # the endpoint rows stack two one-sided stencils, hence the looser tol
        np.testing.assert_allclose(t.f_double_prime.values[1:-1], 6 * x[1:-1], atol=1e-3)
        np.testing.assert_allclose(t.f_double_prime.values, 6 * x, atol=5e-3)

    def test_derivative_needs_five_nodes(self):
        grid = ParameterGrid(0.0, 1.0, 3)
        with pytest.raises(InvalidGrid):
            GridFunction(grid, grid.nodes()).derivative()

    def test_mixed_grids_rejected(self):
        g1, g2 = ParameterGrid(0.0, 1.0, 11), ParameterGrid(0.0, 1.0, 13)
        with pytest.raises(GridMismatch):
            TargetFunction(
                GridFunction(g1, g1.nodes()),
                GridFunction(g2, np.ones(13)),
                GridFunction(g1, np.zeros(11)),
            )


class TestValidateProblem:
    def test_zero_qfi_node_rejected(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        j = np.ones(11)
        j[5] = 0.0
        with pytest.raises(NonPositiveQfi):
            QfiProfile(GridFunction(grid, j), GridFunction(grid, np.zeros(11)), 1)

    def test_grid_mismatch(self):
        prior = make_uniform_prior(0.0, 1.0, 11)
        other = ParameterGrid(0.0, 1.0, 13)
        with pytest.raises(GridMismatch):
            EstimationProblem(
                prior,
                TargetFunction.identity(other),
                QfiProfile.constant(other, 1.0),
            )
