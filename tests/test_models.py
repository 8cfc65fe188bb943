import math

import numpy as np
import pytest

from qbounds.bounds import bayesian_qcrb, obb_closed_form, obb_variational
from qbounds.errors import DomainError
from qbounds.models import (
    DephasingParams,
    FieldParams,
    InterferometerParams,
    NoonParams,
    dephasing_model,
    field_model,
    interferometer_problem,
    interferometer_qfi,
    noon_model,
)


class TestNoon:
    def test_constant_qfi(self):
        problem, _ = noon_model(NoonParams(10), (0.0, math.pi / 10), 401, 1)
        np.testing.assert_array_equal(problem.qfi.values, 100.0)

    def test_measurement_probability_endpoint(self):
        _, model = noon_model(NoonParams(10), (0.0, math.pi / 10), 401, 1)
        assert model.p1.values[-1] == pytest.approx(1.0, abs=1e-12)  # sin^2(pi/2)
        assert np.all((model.p1.values >= 0.0) & (model.p1.values <= 1.0))

    def test_bounds_match_closed_form(self):
        problem, _ = noon_model(NoonParams(10), (0.0, math.pi / 10), 4001, 1)
        assert bayesian_qcrb(problem).value == pytest.approx(0.01, rel=1e-12)
        assert obb_variational(problem).value == pytest.approx(0.0041612, abs=1e-6)

    def test_invalid_particle_number(self):
        with pytest.raises(DomainError):
            NoonParams(0)


class TestDephasing:
    def test_eta_derivation(self):
        p = DephasingParams(0.5)
        assert p.eta == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert DephasingParams.from_eta(0.25).gamma == pytest.approx(math.log(4.0))

    def test_noiseless_limit(self):
        problem, model = dephasing_model(DephasingParams(0.0), (0.0, math.pi), 401, 1)
        np.testing.assert_array_equal(problem.qfi.values, 1.0)
        mid = 200  # x = pi/2
        assert model.p1.values[mid] == pytest.approx(0.5, abs=1e-12)

    def test_eta_sweep_matches_scalar_bound(self):
        n, a = 5, math.pi
        for eta in (0.2, 0.4, 0.6, 0.8, 1.0):
            problem, _ = dephasing_model(
                DephasingParams.from_eta(eta), (0.0, a), 4001, n
            )
            j = n * eta**2
            expected = 1.0 / j - 2.0 / (a * j**1.5) * math.tanh(a * math.sqrt(j) / 2)
            assert obb_variational(problem).value == pytest.approx(expected, rel=1e-6)

    def test_invalid_eta(self):
        with pytest.raises(DomainError):
            DephasingParams.from_eta(0.0)
        with pytest.raises(DomainError):
            DephasingParams(-1.0)


class TestInterferometer:
    def test_qfi_balanced_single_photon(self):
        p = InterferometerParams(1.0, 1.0)
        assert p.alpha_sq == pytest.approx(1.19968, abs=1e-5)
        assert p.alpha_sq * math.tanh(p.alpha_sq) == pytest.approx(1.0, abs=1e-10)
        assert interferometer_qfi(p) == pytest.approx(6.3994, abs=1e-3)

    # 1e308: the bisection midpoint must not overflow
    @pytest.mark.parametrize("n_b", [*np.logspace(-12, 12, 49), 1e-300, 1e300, 1e308])
    def test_alpha_sq_matches_brentq(self, n_b):
        from scipy.optimize import brentq

        expected = brentq(lambda u: u * math.tanh(u) - n_b, 0.0, n_b + 2.0,
                          xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=2000)
        assert InterferometerParams(1.0, n_b).alpha_sq == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("n_b", [-1.0, math.nan, math.inf])
    def test_photon_number_domain(self, n_b):
        with pytest.raises(DomainError):
            InterferometerParams(1.0, n_b)

    @pytest.mark.parametrize("n_a", [0.0, 1.0, 4.0])
    def test_dark_port_b(self, n_a):
        p = InterferometerParams(n_a, 0.0)
        assert p.alpha_sq == 0.0
        assert interferometer_qfi(p) == n_a

    def test_large_balanced_approaches_maximum(self):
        # J_m = N^2 + N for total photon number N split evenly
        N = 20
        p = InterferometerParams(N / 2.0, N / 2.0)
        assert interferometer_qfi(p) == pytest.approx(N**2 + N, rel=0.05)

    def test_monotone_in_each_photon_number(self):
        vals = np.array(
            [
                [interferometer_qfi(InterferometerParams(na, nb)) for nb in
                 (0.0, 0.5, 1.0, 2.0, 4.0)]
                for na in (0.0, 0.5, 1.0, 2.0, 4.0)
            ]
        )
        assert np.all(np.diff(vals, axis=0) >= 0.0)
        assert np.all(np.diff(vals, axis=1) >= 0.0)

    def test_problem_bounds(self):
        params = InterferometerParams(1.0, 1.0)
        j = interferometer_qfi(params)
        a = math.pi / 5.0
        problem = interferometer_problem(params, (0.0, a), 4001, 4)
        assert bayesian_qcrb(problem).value == pytest.approx(1.0 / (4 * j), rel=1e-12)
        assert obb_variational(problem).value == pytest.approx(
            obb_closed_form(4 * j, a).value, rel=1e-6
        )

    def test_single_shot_qcrb_value(self):
        problem = interferometer_problem(
            InterferometerParams(1.0, 1.0), (0.0, math.pi / 5.0), 2001, 1
        )
        assert bayesian_qcrb(problem).value == pytest.approx(0.15626, abs=1e-4)

    def test_wide_prior_saturates_to_qcrb(self):
        # residual gap is 2/(a sqrt(J)) ~ 8e-3 at a=100; it matches the
        # closed form tightly and keeps shrinking as the prior widens
        problem = interferometer_problem(
            InterferometerParams(1.0, 1.0), (0.0, 100.0), 4001, 1
        )
        j = interferometer_qfi(InterferometerParams(1.0, 1.0))
        value = obb_variational(problem).value
        assert value == pytest.approx(1.0 / j, rel=1e-2)
        assert value == pytest.approx(obb_closed_form(j, 100.0).value, rel=1e-6)

    def test_negative_photon_number(self):
        with pytest.raises(DomainError):
            InterferometerParams(-0.1, 1.0)


class TestField:
    def test_qfi_point_values(self):
        problem, model = field_model(
            FieldParams(math.pi / 2), (0.0, math.pi / 2), 4001, 1
        )
        j = problem.qfi.values
        assert j[0] == pytest.approx(2.0, abs=1e-12)
        assert j[-1] == pytest.approx(1.0, abs=1e-12)
        mid = 2000  # x = pi/4
        assert model.p1.values[mid] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_reduction_identity_at_half_pi(self, n):
        problem, _ = field_model(FieldParams(math.pi / 2), (0.0, math.pi / 2), 801, n)
        x = problem.grid.nodes()
        np.testing.assert_allclose(
            problem.qfi.values, n * (2.0 - np.sin(x) ** 2), rtol=1e-13
        )

    @pytest.mark.parametrize("B", [1e-4, 1e-7, 1e-8])
    def test_qfi_end_values_at_small_field(self, B):
        # J(0) = 4 s^2 and J(pi/2) = 4 s^4, s = sin(B/2): 1 - c^2 sin^2 x cancels there
        problem, _ = field_model(FieldParams(B), (0.0, math.pi / 2), 101, 1)
        s2 = math.sin(B / 2) ** 2
        j = problem.qfi.values
        assert j[0] == pytest.approx(4 * s2, rel=1e-13, abs=0.0)
        assert j[-1] == pytest.approx(4 * s2 * s2, rel=1e-13, abs=0.0)

    def test_qfi_strictly_positive(self):
        for B in (0.3, math.pi / 2, 2.8):
            problem, _ = field_model(FieldParams(B), (0.0, math.pi / 2), 801, 1)
            assert problem.qfi.values.min() > 0.0


# EstimationProblem is the one check of a QFI that vanishes or underflows somewhere
@pytest.mark.parametrize("build", [
    lambda: field_model(FieldParams(0.0), (0.0, math.pi / 2), 101),
    # eta^2 underflows; at gamma = 800 eta itself is 0
    lambda: dephasing_model(DephasingParams(400.0), (0.0, math.pi), 101),
    lambda: dephasing_model(DephasingParams(800.0), (0.0, math.pi), 101),
    # eta^2 = 1e-308 is subnormal
    lambda: dephasing_model(DephasingParams(355.0), (0.0, math.pi), 101),
    lambda: interferometer_problem(InterferometerParams(0.0, 0.0), (0.0, 1.0), 101),
], ids=["field-B0", "dephasing-gamma400", "dephasing-gamma800", "dephasing-gamma355",
        "interferometer-dark"])
def test_vanishing_qfi_rejected(build):
    with pytest.raises(DomainError, match="QFI must be finite and strictly positive"):
        build()
