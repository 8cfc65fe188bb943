"""Bayesian MMSE estimator over binomial measurement models.

A binary measurement with per-parameter success probability p1(x), repeated
n times, is summarized by the count k of 1-outcomes (a sufficient statistic:
n+1 outcomes instead of 2^n sequences); the posterior mean per k is the MMSE
estimate. ``mmse_mse``, the one MMSE entry point, returns the estimates,
their Bayes risk and the zero-evidence mask from one pass over the banded
blocks of ``numerics.likelihood_blocks``. ``estimator_bias`` gives their bias
curve from two walks: the estimates, summed as ``mmse_mse`` sums them but
with no spread, then their mean per column. ``mse_via_decomposition``
recomputes the risk as variance plus squared bias over the dense (n+1) x m
table, an independent check. All three sum evidence and first moment as one
(n+1, 2) array against the columns [wp, wp x] of ``_prior_weights``, and
``_posterior_means`` alone forms the prior mean. The walks hand those columns
to ``likelihood_blocks``, which then skips, where that pays, the cells below
E0(k) - span, E0(k) being outcome k's largest log-cell: they carry at most
2^-60 of each outcome's evidence and |first moment| and of each column's
mass, for any prior and grid, so no zero-evidence flag moves. Integrals are
Simpson sums on the shared grid; no Monte Carlo, so every quantity is
deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridFunction, ParameterGrid, PriorDensity
from .errors import DomainError
from .numerics import (_check_probabilities, _dot, _repetition_count, composite_simpson,
                       likelihood_blocks, log_binomial_pmf_vector)

__all__ = [
    "BinaryMeasurementModel",
    "MmseReport",
    "estimator_bias",
    "mmse_mse",
    "mse_via_decomposition",
]


@dataclass(frozen=True, eq=False)
class BinaryMeasurementModel:
    """Single-shot probability of outcome 1 as a function of the parameter."""

    p1: GridFunction

    def __post_init__(self) -> None:
        _check_probabilities(self.p1.values)

    @property
    def grid(self) -> ParameterGrid:
        return self.p1.grid


@dataclass(frozen=True, eq=False)
class MmseReport:
    """MMSE estimator summary for one repetition count."""

    estimates: np.ndarray          # posterior mean per outcome count k
    mse: float                     # Bayes risk of the posterior-mean estimator
    zero_evidence: np.ndarray      # mask: every cell of outcome k is below 2^-1022


def _prior_weights(m: BinaryMeasurementModel, prior: PriorDensity, n: int):
    """(the int n, nodes x, wp = Simpson weights times the prior density, columns
    [wp, wp x]) once n is an integer >= 0 and the model and prior share one grid;
    else DomainError."""
    n = _repetition_count(n)
    if m.grid != prior.grid:
        raise DomainError("measurement model and prior must share one grid")
    x, wp = m.grid.nodes(), m.grid.simpson_weights * prior.samples.values
    return n, x, wp, np.column_stack([wp, wp * x])


def _posterior_means(sums, x, wp):
    """(posterior mean per outcome count, zero-evidence mask) from the (n + 1, 2)
    evidence and first moment; an outcome with zero evidence gets the prior mean."""
    evidence, first_moment = sums.T
    zero = evidence <= 0.0
    return np.where(zero, _dot(wp, x), first_moment / np.where(zero, 1.0, evidence)), zero


# Rounding costs s2 - s1^2/w about eps * s2 in each row. While a block's
# spreads keep at least this share of its s2, the block's total spread is
# good to about eps / _CANCELLATION relative, and the risk is a sum of such
# totals. Below it (posteriors narrow against their distance from the
# block's middle node, as on coarse grids) every row that falls below the
# share is summed again about its own mean.
_CANCELLATION = 2.0**-6


def _block_spread(block, x, wp, w):
    """Per row of one likelihood block over nodes x: (mean, spread) of x.

    The row's weights are block * wp, with total w. One product gives the
    moments s1, s2 of dx = x - c about the block's middle node c; the mean
    is c + s1/w and the spread sum (x - mean)^2 block wp is s2 - s1^2/w,
    except where that cancels (see _CANCELLATION).
    """
    c = x[x.size // 2]
    dx = x - c
    s1, s2 = (block @ np.column_stack([wp * dx, wp * dx * dx])).T
    d = s1 / np.where(w > 0.0, w, 1.0)
    spread = s2 - s1 * d
    if spread.sum() < _CANCELLATION * s2.sum():
        redo = np.flatnonzero(spread < _CANCELLATION * s2)
        dev = dx - d[redo, None]
        spread[redo] = (block[redo] * dev * dev) @ wp
    return c + d, spread


def mmse_mse(m: BinaryMeasurementModel, prior: PriorDensity, n: int) -> MmseReport:
    """Bayes risk of the posterior-mean estimator of x, in one pass.

    mse = \\int p(x) sum_k (x_hat(k) - x)^2 p(k|x) dx, summed as the
    posterior spread of each outcome, sum_k sum_x wp(x) p(k|x) (x - x_hat_k)^2
    with wp the Simpson weights times the prior density; the estimand is
    the parameter x itself. Each banded likelihood block
    adds to every outcome's evidence, first moment and spread, and is
    dropped: memory is O(n) outcome arrays plus one block, never the
    (n+1) x m table. The spreads are merged block by block with the
    pairwise update of Chan, Golub & LeVeque (1979), so no outcome's spread
    is taken about a far-off point. Outcomes with zero evidence (every
    likelihood cell below the smallest normal double, so read as 0.0, as
    for the outcomes the model rules out) get the prior mean as their
    estimate and carry no weight in the risk.
    """
    n, x, wp, weights = _prior_weights(m, prior, n)
    # the O(n) outcome sums come first, so a hopeless n fails before any block
    sums, spread = np.zeros((n + 1, 2)), np.zeros(n + 1)  # evidence, first moment
    for cols, rows, block in likelihood_blocks(n, m.p1.values, weights):
        part = block @ weights[cols]
        w, (w_run, s_run) = part[:, 0], sums[rows].T
        mean, own = _block_spread(block, x[cols], wp[cols], w)
        # merge (w, mean, own) into the running (w_run, s_run / w_run,
        # spread); a row seen for the first time (w_run = 0) takes the block's
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = mean - s_run / w_run
            cross = delta * delta * (w_run * w / (w_run + w))
        spread[rows] += own + np.where(w_run > 0.0, cross, 0.0)
        sums[rows] += part
    estimates, zero = _posterior_means(sums, x, wp)
    return MmseReport(estimates, float(spread.sum()), zero)


def estimator_bias(m: BinaryMeasurementModel, prior: PriorDensity, n: int) -> GridFunction:
    """Bias curve E[x_hat | x] - x of the posterior-mean estimator x_hat(k).

    Two walks over the banded likelihood blocks of n repetitions: the
    first sums each outcome's evidence and first moment with mmse_mse's
    products in its order, so the estimates are mmse_mse's to the bit, but
    takes no spread; the second averages the estimates over each column.
    """
    n, x, wp, weights = _prior_weights(m, prior, n)
    sums = np.zeros((n + 1, 2))  # evidence, first moment
    for cols, rows, block in likelihood_blocks(n, m.p1.values, weights):
        sums[rows] += block @ weights[cols]
    estimates, _ = _posterior_means(sums, x, wp)
    conditional_mean = np.empty(m.grid.m)
    for cols, rows, block in likelihood_blocks(n, m.p1.values, weights):
        conditional_mean[cols] = estimates[rows] @ block
    return GridFunction(m.grid, conditional_mean - x)


def mse_via_decomposition(
    m: BinaryMeasurementModel, prior: PriorDensity, n: int
) -> float:
    """Bayes risk via the variance-plus-squared-bias decomposition.

    \\int p(x) [ Var(x_hat | x) + bias(x)^2 ] dx over the dense likelihood
    table; independent route used to cross-check mmse_mse.
    """
    n, x, wp, weights = _prior_weights(m, prior, n)
    like = log_binomial_pmf_vector(n, m.p1.values)      # (n+1, m)
    estimates, _ = _posterior_means(like @ weights, x, wp)
    conditional_mean = estimates @ like
    dev = (estimates[:, None] - conditional_mean[None, :]) ** 2
    var = np.einsum("km,km->m", like, dev)
    bias = conditional_mean - x
    return float(composite_simpson(prior.samples.values * (var + bias**2), m.grid.h))
