"""Dephasing qubit at n = 5 measurements, swept over the noise level eta.

The coherence factor eta = exp(-gamma) scales the single-shot information
down to eta^2, so small eta means a hard estimation problem. The OBB tracks
the MMSE risk closely over the whole noise range while the QCRB overshoots
it at strong noise.
"""
from qbounds import (
    DEFAULT_GRID_M,
    DephasingParams,
    bayesian_qcrb,
    dephasing_model,
    mmse_mse,
    obb_variational,
)
from qbounds.models import EXAMPLES

SUPPORT = EXAMPLES["dephasing"].support
N_SHOTS = 5

print(f"{'eta':>5} {'qcrb':>12} {'obb':>12} {'mmse':>12}")
for tenth in range(1, 11):
    eta = tenth / 10.0
    problem, model = dephasing_model(
        DephasingParams.from_eta(eta), SUPPORT, DEFAULT_GRID_M, N_SHOTS
    )
    qcrb = bayesian_qcrb(problem).value
    obb = obb_variational(problem).value
    mse = mmse_mse(model, problem.prior, N_SHOTS).mse
    print(f"{eta:>5.1f} {qcrb:12.6g} {obb:12.6g} {mse:12.6g}")

prior_var = (SUPPORT[1] - SUPPORT[0]) ** 2 / 12
print(f"\nuniform-prior variance baseline: {prior_var:.6g}")
