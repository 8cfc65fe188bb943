"""Estimator bias vs. the variational optimal bias for the NOON example.

Prints decimated samples of two curves: the actual bias of the posterior-mean
estimator, E[x_hat | x] - x, for several measurement counts, and the solved
optimal bias that generates the OBB. The estimator bias shrinks as n grows --
the transition into the asymptotic regime where unbiased analysis applies.
"""
import numpy as np

from qbounds import NoonParams, estimator_bias, noon_model, solve_optimal_bias
from qbounds.models import EXAMPLES

GRID_M = 2001
SUPPORT = EXAMPLES["noon"].support
COUNTS = (1, 2, 3, 15, 20)

curves = {}
for n in COUNTS:
    problem, model = noon_model(NoonParams(10), SUPPORT, GRID_M, n)
    curves[n] = estimator_bias(model, problem.prior, n).values

problem1, _ = noon_model(NoonParams(10), SUPPORT, GRID_M, 1)
optimal = solve_optimal_bias(problem1)[0].values
x = problem1.grid.nodes()

header = f"{'x':>9} {'b_opt(n=1)':>11} " + " ".join(f"bias n={n:<3}" for n in COUNTS)
print(header)
for i in range(0, GRID_M, 200):
    row = " ".join(f"{curves[n][i]:10.3e}" for n in COUNTS)
    print(f"{x[i]:9.5f} {optimal[i]:11.3e} {row}")

print("\nmax |bias| per n:")
for n in COUNTS:
    print(f"  n={n:<3} {np.max(np.abs(curves[n])):.4e}")
