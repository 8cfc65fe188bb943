import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbounds.core import GridFunction, ParameterGrid
from qbounds.errors import DomainError, InvalidGrid, SingularSystem
from qbounds.numerics import (
    composite_simpson,
    binomial_pmf,
    log_binomial_pmf_vector,
    solve_tridiagonal,
)


class TestSimpson:
    def test_constant_exact(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        assert composite_simpson(np.ones(101), grid.h) == 1.0

    def test_sine_on_0_pi(self):
        grid = ParameterGrid(0.0, math.pi, 2001)
        f = GridFunction.from_callable(grid, np.sin)
        val = composite_simpson(f.values, f.grid.h)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_fourth_order_convergence(self):
        # halving h on x^4 shrinks the error by ~16
        def err(m):
            grid = ParameterGrid(0.0, 1.0, m)
            return abs(composite_simpson(grid.nodes() ** 4, grid.h) - 0.2)

        ratio = err(21) / err(41)
        assert ratio == pytest.approx(16.0, rel=0.05)

    def test_even_sample_count_rejected(self):
        with pytest.raises(InvalidGrid):
            composite_simpson(np.ones(10), 0.1)

    @given(
        alpha=st.floats(-5, 5),
        beta=st.floats(-5, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=201)
        g = rng.normal(size=201)
        h = 0.01
        lhs = composite_simpson(alpha * f + beta * g, h)
        rhs = alpha * composite_simpson(f, h) + beta * composite_simpson(g, h)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestTridiagonal:
    def test_identity_system(self):
        rhs = np.array([3.0, -1.0, 2.0])
        u = solve_tridiagonal(np.zeros(2), np.ones(3), np.zeros(2), rhs)
        np.testing.assert_allclose(u, rhs)

    def test_laplacian_all_ones(self):
        # verified by direct multiplication: A @ (1,1,1,1,1) = (1,0,0,0,1)
        rhs = np.array([1.0, 0, 0, 0, 1.0])
        u = solve_tridiagonal(-np.ones(4), 2.0 * np.ones(5), -np.ones(4), rhs)
        np.testing.assert_allclose(u, np.ones(5), atol=1e-12)

    def test_zero_diagonal_row_raises(self):
        with pytest.raises(SingularSystem, match="row 1"):
            solve_tridiagonal(
                np.zeros(2), np.array([1.0, 0.0, 1.0]), np.zeros(2), np.ones(3)
            )

    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(3, 60))
    @settings(max_examples=50, deadline=None)
    def test_residual_on_dominant_systems(self, seed, m):
        rng = np.random.default_rng(seed)
        sub = rng.uniform(-1, 1, m - 1)
        sup = rng.uniform(-1, 1, m - 1)
        diag = 2.0 + np.abs(rng.normal(size=m))  # strictly dominant
        rhs = rng.normal(size=m)
        u = solve_tridiagonal(sub, diag, sup, rhs)
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        expected = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(u - expected)) <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)


class TestBinomialPmf:
    def test_fair_coin(self):
        assert binomial_pmf(2, 1, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_total_probability(self):
        total = sum(binomial_pmf(50, k, 0.3) for k in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_n_matches_recurrence_oracle(self):
        # pmf(k+1)/pmf(k) = ((n-k)/(k+1)) * (p/(1-p)); build up from k=0
        n, p = 1000, 0.5
        val = 0.5**n
        for k in range(500):
            val *= (n - k) / (k + 1) * (p / (1.0 - p))
        assert binomial_pmf(n, 500, p) == pytest.approx(val, rel=1e-10)

    def test_degenerate_p(self):
        assert binomial_pmf(5, 0, 0.0) == 1.0
        assert binomial_pmf(5, 3, 0.0) == 0.0
        assert binomial_pmf(5, 5, 1.0) == 1.0
        assert binomial_pmf(5, 4, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binomial_pmf(3, 4, 0.5)
        with pytest.raises(DomainError):
            binomial_pmf(3, 1, 1.5)

    @given(
        n=st.integers(0, 200),
        p=st.floats(0.0, 1.0),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, n, p, data):
        assume(1.0 - (1.0 - p) == p)  # skip p where 1-p itself cancels digits
        k = data.draw(st.integers(0, n))
        a = binomial_pmf(n, k, p)
        b = binomial_pmf(n, n - k, 1.0 - p)
        assert a == pytest.approx(b, rel=1e-13, abs=1e-300)

    def test_vector_matches_scalar(self):
        p1 = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
        table = log_binomial_pmf_vector(7, p1)
        for k in range(8):
            for i, p in enumerate(p1):
                assert table[k, i] == pytest.approx(
                    binomial_pmf(7, k, p), rel=1e-13, abs=1e-300
                )
