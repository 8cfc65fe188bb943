"""Personick's quantum-optimal Bayesian risk as an oracle between the bounds.

For a pure state |psi_x> measured n times, the smallest Bayes risk over
every n-copy measurement and every estimator is (S. D. Personick, IEEE
Trans. Inf. Theory 17, 240, 1971)

    \\int p x^2 dx - Tr(rho_1 L),   rho_0 L + L rho_0 = 2 rho_1,

with rho_0 = \\int p rho_x^{(n)} dx and rho_1 = \\int p x rho_x^{(n)} dx.
|psi_x>^{(x)n} is permutation-symmetric, so it lives in the (n+1)-dim Dicke
basis with amplitudes sqrt(C(n,k)) a0^(n-k) a1^k. The OBB bounds every
estimator of every measurement, so obb <= Personick; the binomial MMSE is
one measurement with its best estimator, so Personick <= mmse.
"""
import math

import numpy as np
import pytest

from qbounds.bounds import obb_variational
from qbounds.estimation import mmse_mse
from qbounds.models import FieldParams, NoonParams, field_model, noon_model
from qbounds.numerics import simpson_weights

M = 4001
NOON_N = 10
# eigenvalues of rho_0 below this share of the largest are dropped; the
# truncated L is still a measurement, so its risk stays above the optimum
_EIG_FLOOR = 1e-14


def noon_state(x):
    """(a, da/dx) of (|0> + e^{iNx}|1>)/sqrt(2), each of shape (2, len(x))."""
    phase = np.exp(1j * NOON_N * x)
    a = np.stack([np.ones_like(phase), phase]) / math.sqrt(2.0)
    da = np.stack([np.zeros_like(phase), 1j * NOON_N * phase]) / math.sqrt(2.0)
    return a, da


def field_state(B):
    """x -> (a, da/dx) of exp(-i B (cos x Z + sin x X)/2)|0>."""
    c, s = math.cos(B / 2.0), math.sin(B / 2.0)

    def state(x):
        a = np.stack([c - 1j * s * np.cos(x), -1j * s * np.sin(x)])
        da = np.stack([1j * s * np.sin(x), -1j * s * np.cos(x)])
        return a, da

    return state


def hadamard(a):
    """The amplitudes in the basis (|0> +- |1>)/sqrt(2)."""
    return np.stack([a[0] + a[1], a[0] - a[1]]) / math.sqrt(2.0)


def personick_risk(state, problem, n):
    """Bayes risk of Personick's optimal estimator under the Simpson prior."""
    x = problem.grid.nodes()
    wp = simpson_weights(problem.grid.m, problem.grid.h) * problem.prior.samples.values
    (a0, a1), _ = state(x)
    k = np.arange(n + 1)[:, None]
    binom = np.sqrt([float(math.comb(n, j)) for j in range(n + 1)])[:, None]
    # direct complex powers: a1 = 0 at the field's x = 0, where a log is -inf
    psi = binom * a0 ** (n - k) * a1**k                     # (n+1, m)
    rho0 = (psi * wp) @ psi.conj().T
    rho1 = (psi * (wp * x)) @ psi.conj().T
    lam, vec = np.linalg.eigh(rho0)
    keep = lam > _EIG_FLOOR * lam.max()
    lam, vec = lam[keep], vec[:, keep]
    r1 = vec.conj().T @ rho1 @ vec
    trace = np.sum(2.0 * np.abs(r1) ** 2 / (lam[:, None] + lam[None, :]))
    return float(wp @ (x * x) - trace)


def noon_case(n):
    return noon_model(NoonParams(NOON_N), (0.0, math.pi / 10.0), M, n), noon_state


def field_case(B, n):
    return field_model(FieldParams(B), (0.0, math.pi / 2.0), M, n), field_state(B)


CASES = [pytest.param(noon_case, (n,), id=f"noon-n{n}") for n in (1, 2, 5, 30, 100)] + [
    pytest.param(field_case, (B, n), id=f"field-B{B:.3g}-n{n}")
    for B in (0.1, 1.0, math.pi / 2.0) for n in (1, 10, 100)
]


@pytest.mark.parametrize("case, args", CASES)
def test_obb_below_personick_below_mmse(case, args):
    (problem, model), state = case(*args)
    n = args[-1]
    obb = obb_variational(problem).value
    optimum = personick_risk(state, problem, n)
    mmse = mmse_mse(model, problem.prior, n).mse
    assert obb <= optimum <= mmse * (1.0 + 1e-9), (obb, optimum, mmse)


@pytest.mark.parametrize("case, args, measured", [
    (noon_case, (1,), hadamard),  # the NOON model counts the (|0> - |1>) outcome
    (field_case, (0.1, 1), lambda a: a),
    (field_case, (math.pi / 2.0, 1), lambda a: a),
])
def test_amplitudes_reproduce_the_models(case, args, measured):
    (problem, model), state = case(*args)
    a, da = state(problem.grid.nodes())
    np.testing.assert_allclose(np.abs(measured(a)[1]) ** 2, model.p1.values,
                               rtol=1e-12, atol=1e-15)
    overlap = np.sum(a.conj() * da, axis=0)
    j = 4.0 * (np.sum(np.abs(da) ** 2, axis=0) - np.abs(overlap) ** 2)
    np.testing.assert_allclose(j, problem.qfi.values, rtol=1e-12)
