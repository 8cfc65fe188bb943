import math

import numpy as np
import pytest

from qbounds.core import (
    EstimationProblem,
    GridFunction,
    ParameterGrid,
    PriorDensity,
    make_uniform_prior,
)
from qbounds.errors import DomainError
from qbounds.numerics import composite_simpson


class TestParameterGrid:
    def test_node_positions_reproducible(self):
        grid = ParameterGrid(0.25, 1.75, 301)
        x = grid.nodes()
        for i in (0, 1, 150, 299, 300):
            assert x[i] == pytest.approx(0.25 + i * grid.h, abs=1e-15)
        assert x[-1] == pytest.approx(1.75, abs=np.finfo(float).eps * 2)

    def test_reversed_support(self):
        with pytest.raises(DomainError, match="a2 > a1"):
            ParameterGrid(1.0, 1.0, 11)

    @pytest.mark.parametrize("a1, a2", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)])
    def test_infinite_spacing_rejected(self, a1, a2):
        # nodes a1 + h * i would be nan at i = 0
        with pytest.raises(DomainError, match="a2 > a1"):
            ParameterGrid(a1, a2, 5)

    @pytest.mark.parametrize("m", [2, 4, 1000, 1])
    def test_bad_node_counts(self, m):
        with pytest.raises(DomainError, match="odd m"):
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
        with pytest.raises(DomainError, match="a2 > a1"):
            make_uniform_prior(1.0, 0.0, 11)
        with pytest.raises(DomainError, match="odd m"):
            make_uniform_prior(0.0, 1.0, 4)

    def test_scaled_prior_rejected(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        with pytest.raises(DomainError, match="integrates to"):
            PriorDensity(GridFunction(grid, 2.0 * np.ones(11)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, bad):
        # a nan fails neither v.min() < 0 nor abs(total - 1) > tol
        grid = ParameterGrid(0.0, 1.0, 11)
        v = np.ones(11)
        v[5] = bad
        with pytest.raises(DomainError, match="non-finite samples"):
            PriorDensity(GridFunction(grid, v))


class TestGridDerivative:
    def test_finite_difference_fallback(self):
        grid = ParameterGrid(0.0, 1.0, 2001)
        x = grid.nodes()
        derivative = GridFunction(grid, x**3).derivative()
        np.testing.assert_allclose(derivative.values, 3 * x**2, atol=1e-5)

    def test_derivative_needs_five_nodes(self):
        grid = ParameterGrid(0.0, 1.0, 3)
        with pytest.raises(DomainError, match="m >= 5"):
            GridFunction(grid, grid.nodes()).derivative()


class TestValidateProblem:
    def test_zero_qfi_node_rejected(self):
        prior = make_uniform_prior(0.0, 1.0, 11)
        j = np.ones(11)
        j[5] = 0.0
        with pytest.raises(DomainError, match="strictly positive"):
            EstimationProblem(prior, GridFunction(prior.grid, j))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_qfi_rejected(self, bad):
        prior = make_uniform_prior(0.0, 1.0, 11)
        j = np.ones(11)
        j[5] = bad
        with pytest.raises(DomainError, match="finite"):
            EstimationProblem(prior, GridFunction(prior.grid, j))
        with pytest.raises(DomainError, match="finite"):
            EstimationProblem(prior, GridFunction(prior.grid, np.full(11, bad)))

    def test_grid_mismatch(self):
        prior = make_uniform_prior(0.0, 1.0, 11)
        other = ParameterGrid(0.0, 1.0, 13)
        with pytest.raises(DomainError, match="share one grid"):
            EstimationProblem(prior, GridFunction(other, np.ones(13)))
        # samples are counted against their own grid
        with pytest.raises(DomainError, match="expected 13 samples"):
            GridFunction(other, np.ones(11))


class TestMemos:
    """The arrays a grid or a problem derives from its fields are made once per
    object, read-only, and never shared with another object."""

    @staticmethod
    def problem(a2=1.0, m=11):
        prior = make_uniform_prior(0.0, a2, m)
        return EstimationProblem.n_fold(prior, GridFunction(prior.grid, np.ones(m)), 3)

    @pytest.mark.parametrize("name", ["nodes", "spacings", "simpson_weights", "mass", "q"])
    def test_read_only_and_made_once(self, name):
        p = self.problem()
        get = {"nodes": lambda: p.grid.nodes(), "spacings": lambda: p.grid.spacings,
               "simpson_weights": lambda: p.grid.simpson_weights,
               "mass": lambda: p.mass, "q": lambda: p.q}[name]
        arr = get()
        assert get() is arr
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0

    def test_values(self):
        p = self.problem()
        grid = p.grid
        np.testing.assert_array_equal(grid.spacings, np.diff(grid.nodes()))
        np.testing.assert_array_equal(grid.simpson_weights,
                                      np.array([1.0, *[4.0, 2.0] * 4, 4.0, 1.0]) * (grid.h / 3))
        np.testing.assert_array_equal(p.mass, [0.05, *[0.1] * 9, 0.05])
        np.testing.assert_array_equal(p.q, np.full(10, 3.0))

    def test_grids_never_share_arrays(self):
        grids = [self.problem().grid, self.problem().grid, self.problem(2.0).grid]
        assert grids[0] == grids[1] != grids[2]
        for get in (lambda g: g.nodes(), lambda g: g.spacings, lambda g: g.simpson_weights):
            arrays = [get(grid) for grid in grids]
            assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                           for b in arrays[i + 1:])
        assert grids[2].nodes()[-1] == 2.0 and grids[0].nodes()[-1] == 1.0
