import functools
import importlib.machinery
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from qbounds import numerics
from qbounds.core import ParameterGrid
from qbounds.errors import DomainError, SingularSystem
from qbounds.numerics import (
    composite_simpson,
    likelihood_blocks,
    log_binomial_pmf_vector,
    simpson_weights,
    solve_tridiagonal,
)


class TestSimpson:
    def test_constant_exact(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        assert composite_simpson(np.ones(101), grid.h) == 1.0

    def test_sine_on_0_pi(self):
        grid = ParameterGrid(0.0, math.pi, 2001)
        val = composite_simpson(np.sin(grid.nodes()), grid.h)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_fourth_order_convergence(self):
        # halving h on x^4 shrinks the error by ~16
        def err(m):
            grid = ParameterGrid(0.0, 1.0, m)
            return abs(composite_simpson(grid.nodes() ** 4, grid.h) - 0.2)

        ratio = err(21) / err(41)
        assert ratio == pytest.approx(16.0, rel=0.05)

    def test_even_sample_count_rejected(self):
        with pytest.raises(DomainError, match="odd sample count"):
            composite_simpson(np.ones(10), 0.1)
        with pytest.raises(DomainError, match="odd sample count"):
            simpson_weights(1, 0.1)

    def test_weights_match_panel_sums(self):
        # reference: (h/3)(y_0 + y_m + 4 sum(odd) + 2 sum(interior even))
        y = np.random.default_rng(7).normal(size=(3, 401))
        h = 0.01
        ref = (y[:, 0] + y[:, -1] + 4.0 * y[:, 1:-1:2].sum(axis=1)
               + 2.0 * y[:, 2:-2:2].sum(axis=1)) * (h / 3.0)
        np.testing.assert_allclose(composite_simpson(y, h), ref, rtol=1e-13)
        np.testing.assert_array_equal(simpson_weights(5, 3.0), [1.0, 4.0, 2.0, 4.0, 1.0])

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
        u = solve_tridiagonal(np.ones(3), np.zeros(2), rhs)
        np.testing.assert_allclose(u, rhs)

    def test_laplacian_all_ones(self):
        # verified by direct multiplication: A @ (1,1,1,1,1) = (1,0,0,0,1)
        rhs = np.array([1.0, 0, 0, 0, 1.0])
        u = solve_tridiagonal(2.0 * np.ones(5), -np.ones(4), rhs)
        np.testing.assert_allclose(u, np.ones(5), atol=1e-12)

    def test_zero_diagonal_row_raises(self):
        with pytest.raises(SingularSystem, match="row 1"):
            solve_tridiagonal(np.array([1.0, 0.0, 1.0]), np.zeros(2), np.ones(3))
        # positive diagonal, but indefinite: the second pivot is 1 - 2^2 < 0
        with pytest.raises(SingularSystem, match="not positive definite at row 1"):
            solve_tridiagonal(np.ones(2), np.array([2.0]), np.ones(2))

    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(3, 60))
    @settings(max_examples=50, deadline=None)
    def test_residual_on_dominant_systems(self, seed, m):
        rng = np.random.default_rng(seed)
        off = rng.uniform(-1, 1, m - 1)
        diag = 2.0 + np.abs(rng.normal(size=m))  # strictly dominant, so SPD
        rhs = rng.normal(size=m)
        u = solve_tridiagonal(diag, off, rhs)
        dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        expected = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(u - expected)) <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)


def tridiagonal_systems():
    """(diag, off, rhs): the systems above, and a strictly dominant one of 4001 rows."""
    rng = np.random.default_rng(11)
    m = 4001
    return [
        (np.ones(3), np.zeros(2), np.array([3.0, -1.0, 2.0])),
        (2.0 * np.ones(5), -np.ones(4), np.array([1.0, 0, 0, 0, 1.0])),
        (2.0 + np.abs(rng.normal(size=m)), rng.uniform(-1, 1, m - 1), rng.normal(size=m)),
    ]


# Run in a fresh interpreter on the systems read from stdin: imports
# qbounds.cli, then scipy.linalg. Prints the scipy.linalg/scipy.special
# modules the CLI import left behind, and each system's solution before and
# after scipy.linalg was imported, next to scipy.linalg.lapack's own solve.
# JSON carries every float exactly (repr round-trips, -0.0 included).
_LOADER_PROBE = """
import json, sys
import numpy as np
import qbounds.cli
from qbounds import numerics
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.special")))
systems = [[np.array(a) for a in s] for s in json.load(sys.stdin)]
before = [numerics.solve_tridiagonal(*s) for s in systems]
from scipy.linalg.lapack import dpttrf, dpttrs
after = [numerics.solve_tridiagonal(*s) for s in systems]
reference = [dpttrs(*dpttrf(d, e)[:2], b)[0] for d, e, b in systems]
print(json.dumps({"loaded": loaded, "before": [u.tolist() for u in before],
                  "after": [u.tolist() for u in after],
                  "reference": [u.tolist() for u in reference]}))
"""


class TestLapackLoader:
    """numerics loads scipy's _flapack by file; scipy.linalg.lapack is the fallback."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def probe():
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        systems = json.dumps([[a.tolist() for a in s] for s in tridiagonal_systems()])
        proc = subprocess.run(
            [sys.executable, "-c", _LOADER_PROBE], input=systems, capture_output=True,
            text=True, timeout=120,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])})
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_cli_import_loads_no_scipy_linalg_or_special(self):
        assert self.probe()["loaded"] == []

    def test_direct_routines_agree_after_scipy_linalg_import(self):
        doc = self.probe()
        assert doc["before"] == doc["after"] == doc["reference"]

    @pytest.fixture
    def fallback(self, monkeypatch):
        """A second copy of numerics, executed while no _flapack file is found."""
        find_spec = importlib.machinery.PathFinder.find_spec

        def no_flapack(name, path=None, target=None):
            return None if name == "_flapack" else find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_flapack)
        spec = importlib.util.spec_from_file_location("qbounds._numerics_fallback",
                                                      numerics.__file__)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_fallback_solves_bitwise_alike(self, fallback):
        from scipy.linalg import lapack

        assert fallback.dpttrf is lapack.dpttrf and fallback.dpttrs is lapack.dpttrs
        assert numerics.dpttrf is not lapack.dpttrf
        for diag, off, rhs in tridiagonal_systems():
            direct = numerics.solve_tridiagonal(diag, off, rhs)
            assert fallback.solve_tridiagonal(diag, off, rhs).tobytes() == direct.tobytes()

    def test_fallback_raises_on_indefinite_matrix(self, fallback):
        with pytest.raises(SingularSystem, match="not positive definite at row 1"):
            fallback.solve_tridiagonal(np.ones(2), np.array([2.0]), np.ones(2))


def pmf(n, k, p):
    return log_binomial_pmf_vector(n, np.array([p]))[k, 0]


class TestBinomialPmf:
    def test_fair_coin(self):
        assert pmf(2, 1, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_total_probability(self):
        table = log_binomial_pmf_vector(50, np.array([0.0, 0.3, 0.77, 1.0]))
        np.testing.assert_allclose(table.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_large_n_matches_recurrence_oracle(self):
        # pmf(k+1)/pmf(k) = ((n-k)/(k+1)) * (p/(1-p)); build up from k=0
        n, p = 1000, 0.5
        val = 0.5**n
        for k in range(500):
            val *= (n - k) / (k + 1) * (p / (1.0 - p))
        assert pmf(n, 500, p) == pytest.approx(val, rel=1e-10)

    def test_degenerate_p(self):
        table = log_binomial_pmf_vector(5, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(table[:, 0], [1.0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(table[:, 1], [0, 0, 0, 0, 0, 1.0])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_binomial_pmf_vector(3, np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            log_binomial_pmf_vector(3, np.array([-0.1]))
        with pytest.raises(DomainError):
            log_binomial_pmf_vector(3, np.array([np.nan]))
        # the walk runs the kernel's checks: n >= 0 and p1 in [0, 1]
        for p1 in ([np.nan, 0.5], [1.5, 0.5], [-0.1, 0.5]):
            with pytest.raises(DomainError, match=r"p1 samples must lie in \[0, 1\]"):
                next(likelihood_blocks(3, np.array(p1)))
        with pytest.raises(DomainError, match="repetition count"):
            next(likelihood_blocks(-2, np.array([0.5])))
        with pytest.raises(DomainError, match="repetition count"):
            log_binomial_pmf_vector(-1, np.array([0.5]))

    @given(
        n=st.integers(0, 200),
        p=st.floats(0.0, 1.0),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, n, p, data):
        assume(1.0 - (1.0 - p) == p)  # skip p where 1-p itself cancels digits
        k = data.draw(st.integers(0, n))
        table = log_binomial_pmf_vector(n, np.array([p, 1.0 - p]))
        assert table[k, 0] == pytest.approx(table[n - k, 1], rel=1e-13, abs=1e-300)

    def test_symmetry_drawn_failure(self):
        # a draw of test_symmetry that was 1.1e-13 apart before k was mirrored
        n, p, k = 31, 8.881784197001252e-16, 18
        table = log_binomial_pmf_vector(n, np.array([p, 1.0 - p]))
        assert table[k, 0] == pytest.approx(table[n - k, 1], rel=1e-13, abs=1e-300)

    def test_empty_p1(self):
        # no columns is no error: a (rows, 0) table
        assert log_binomial_pmf_vector(3, np.array([])).shape == (4, 0)

    def test_vector_matches_scalar(self):
        # scipy's scalar pmf is an independent reference for every cell
        p1 = np.array([0.0, 1e-3, 0.2, 0.5, 0.9, 1.0 - 1e-9, 1.0])
        # at n = 3000 the ~2e4-sized log terms round to ~7e-12 relative
        for n, rel in ((7, 1e-13), (300, 1e-11), (3000, 1e-11)):
            table = log_binomial_pmf_vector(n, p1)
            expected = binom.pmf(np.arange(n + 1)[:, None], n, p1)
            live = expected > 1e-280
            np.testing.assert_allclose(table[live], expected[live], rtol=rel, atol=0)
            assert np.all(table[~live] <= 1e-270)
