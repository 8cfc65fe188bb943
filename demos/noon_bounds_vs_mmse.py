"""NOON-state phase estimation: where the QCRB stops being a lower bound.

Sweeps the number of repeated measurements n for a 10-particle NOON state
with a uniform prior on (0, pi/10) and prints three curves: the Bayesian
QCRB, the optimal biased bound (OBB), and the actual risk of the Bayesian
posterior-mean (MMSE) estimator. At small n the MMSE risk dips *below* the
QCRB -- the estimator is biased there, and only the OBB stays a valid floor.
"""
from qbounds import (
    DEFAULT_GRID_M,
    NoonParams,
    bayesian_qcrb,
    mmse_mse,
    noon_model,
    obb_variational,
)
from qbounds.models import EXAMPLES

SUPPORT = EXAMPLES["noon"].support

print(f"{'n':>3} {'qcrb':>12} {'obb':>12} {'mmse':>12}  note")
prior_var = (SUPPORT[1] - SUPPORT[0]) ** 2 / 12.0
for n in range(1, 31):
    problem, model = noon_model(NoonParams(10), SUPPORT, DEFAULT_GRID_M, n)
    qcrb = bayesian_qcrb(problem).value
    obb = obb_variational(problem).value
    mse = mmse_mse(model, problem.prior, n).mse
    note = "mmse < qcrb (!)" if mse < qcrb else ""
    print(f"{n:>3} {qcrb:12.6g} {obb:12.6g} {mse:12.6g}  {note}")

print(f"\nprior variance (n=0 baseline): {prior_var:.6g}")
