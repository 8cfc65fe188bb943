"""SU(2) interferometer fed by a coherent state and an even cat state.

This example is bounds-only: the QFI is a closed form in the port photon
numbers (with |alpha|^2 recovered from n_B = |alpha|^2 tanh |alpha|^2 by
root-finding), but no closed-form outcome distribution comes with it, so
there is no MMSE column here.
"""
from qbounds import (
    DEFAULT_GRID_M,
    InterferometerParams,
    bayesian_qcrb,
    interferometer_problem,
    interferometer_qfi,
    obb_variational,
)
from qbounds.models import EXAMPLES

SUPPORT = EXAMPLES["interferometer"].support

params = InterferometerParams(n_a=1.0, n_b=1.0)
print(f"|alpha|^2 = {params.alpha_sq:.6f}  (solves u tanh u = {params.n_b})")
print(f"single-shot QFI J = {interferometer_qfi(params):.6f}\n")

print(f"{'n':>3} {'qcrb':>12} {'obb':>12}")
for n in range(1, 31):
    problem = interferometer_problem(params, SUPPORT, DEFAULT_GRID_M, n)
    print(
        f"{n:>3} {bayesian_qcrb(problem).value:12.6g} "
        f"{obb_variational(problem).value:12.6g}"
    )

# balanced ports maximize J for a fixed photon budget; J_m = N^2 + N
for total in (4, 10, 20):
    p = InterferometerParams(total / 2.0, total / 2.0)
    print(
        f"\nN={total:>2} balanced: J = {interferometer_qfi(p):10.4f}"
        f"   (N^2 + N = {total**2 + total})"
    )
