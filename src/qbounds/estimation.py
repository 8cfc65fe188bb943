"""Bayesian MMSE estimator over binomial measurement models.

A binary measurement with per-parameter success probability p1(x), repeated
n times, is summarized by the count k of 1-outcomes (a sufficient statistic,
so the outcome space is n+1 values instead of 2^n sequences). The posterior
mean per k is the MMSE estimate; Bayes risk, the estimator bias curve, and
the variance/bias decomposition are all computed by Simpson quadrature on
the shared grid. No Monte Carlo anywhere, so every quantity is deterministic
and testable to tight tolerances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridFunction, ParameterGrid, PriorDensity, TargetFunction
from .errors import DomainError, GridMismatch, ZeroEvidence
from .numerics import composite_simpson, log_binomial_pmf_vector, simpson_weights

__all__ = [
    "BinaryMeasurementModel",
    "MmseReport",
    "likelihood_table",
    "posterior",
    "mmse_estimates",
    "mmse_mse",
    "mse_via_decomposition",
]


@dataclass(frozen=True, eq=False)
class BinaryMeasurementModel:
    """Single-shot probability of outcome 1 as a function of the parameter."""

    p1: GridFunction

    def __post_init__(self) -> None:
        v = self.p1.values
        if v.min() < 0.0 or v.max() > 1.0:
            raise DomainError("p1 samples must lie in [0, 1]")

    @property
    def grid(self) -> ParameterGrid:
        return self.p1.grid


@dataclass(frozen=True, eq=False)
class MmseReport:
    """MMSE estimator summary for one repetition count."""

    n: int
    estimates: np.ndarray          # posterior mean per outcome count k
    mse: float                     # Bayes risk of the posterior-mean estimator
    bias_curve: GridFunction       # E[x_hat | x] - x
    zero_evidence: np.ndarray      # mask: outcome k impossible under the model


def likelihood_table(m: BinaryMeasurementModel, n: int) -> np.ndarray:
    """Binomial likelihood p(k|x) on the grid; shape (n+1, grid.m)."""
    if n < 0:
        raise DomainError(f"repetition count must be >= 0, got {n}")
    return log_binomial_pmf_vector(n, m.p1.values)


def _check_shared_grid(m: BinaryMeasurementModel, prior: PriorDensity) -> None:
    if m.grid != prior.grid:
        raise GridMismatch("measurement model and prior must share one grid")


def posterior(
    m: BinaryMeasurementModel, prior: PriorDensity, n: int, k: int
) -> GridFunction:
    """Posterior density p(x|k) by Bayes' rule, Simpson-normalized."""
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    _check_shared_grid(m, prior)
    joint = likelihood_table(m, n)[k] * prior.samples.values
    evidence = composite_simpson(joint, m.grid.h)
    if evidence <= 0.0:
        raise ZeroEvidence(f"outcome k={k} has zero probability under the model")
    return GridFunction(m.grid, joint / evidence)


def _estimates_and_mask(m: BinaryMeasurementModel, prior: PriorDensity, n: int):
    """(likelihood table, posterior mean per outcome count, zero-evidence mask).

    Evidence and first moment are Simpson sums over x, taken as products of
    the table with the prior-weighted Simpson weights.
    """
    _check_shared_grid(m, prior)
    x = m.grid.nodes()
    wp = simpson_weights(m.grid.m, m.grid.h) * prior.samples.values
    like = likelihood_table(m, n)                       # (n+1, m)
    evidence = like @ wp
    first_moment = like @ (wp * x)
    zero = evidence <= 0.0
    estimates = np.where(zero, wp @ x, first_moment / np.where(zero, 1.0, evidence))
    return like, estimates, zero


def mmse_estimates(
    m: BinaryMeasurementModel, prior: PriorDensity, n: int
) -> np.ndarray:
    """Posterior mean x_hat(k) for k = 0..n.

    Zero-evidence outcomes (impossible under the model) are reported as the
    prior mean; they carry zero probability weight in any risk sum.
    """
    return _estimates_and_mask(m, prior, n)[1]


def mmse_mse(
    m: BinaryMeasurementModel,
    prior: PriorDensity,
    n: int,
    target: TargetFunction,
) -> MmseReport:
    """Bayes risk and bias curve of the posterior-mean estimator of x.

    mse = \\int p(x) sum_k (x_hat(k) - x)^2 p(k|x) dx, and
    bias_curve(x) = sum_k x_hat(k) p(k|x) - x. Only the identity target is
    supported: the posterior-mean workflow estimates the parameter itself.
    """
    if target.grid != m.grid:
        raise GridMismatch("target must live on the measurement grid")
    if not target.is_identity():
        raise DomainError("MMSE simulation is defined for the identity target only")
    like, estimates, zero = _estimates_and_mask(m, prior, n)
    x, p = m.grid.nodes(), prior.samples.values

    sq = (estimates[:, None] - x[None, :]) ** 2         # (n+1, m)
    risk_density = p * np.einsum("km,km->m", like, sq)
    mse = float(composite_simpson(risk_density, m.grid.h))

    conditional_mean = estimates @ like                 # E[x_hat | x]
    bias_curve = GridFunction(m.grid, conditional_mean - x)
    return MmseReport(n, estimates, mse, bias_curve, zero)


def mse_via_decomposition(
    m: BinaryMeasurementModel, prior: PriorDensity, n: int
) -> float:
    """Bayes risk via the variance-plus-squared-bias decomposition.

    \\int p(x) [ Var(x_hat | x) + bias(x)^2 ] dx; independent route used to
    cross-check mmse_mse.
    """
    like, estimates, _ = _estimates_and_mask(m, prior, n)
    x, p = m.grid.nodes(), prior.samples.values
    conditional_mean = estimates @ like
    dev = (estimates[:, None] - conditional_mean[None, :]) ** 2
    var = np.einsum("km,km->m", like, dev)
    bias = conditional_mean - x
    return float(composite_simpson(p * (var + bias**2), m.grid.h))
