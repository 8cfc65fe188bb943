"""qbounds: valid MSE lower bounds for quantum parameter estimation.

Computes the Bayesian quantum Cramer-Rao bound and the optimal biased bound
(closed form and variational), and simulates the Bayesian MMSE estimator for
binomial measurement models, on a shared deterministic grid.
"""

from .bounds import *
from .core import *
from .errors import *
from .estimation import *
from .models import *
from .numerics import composite_simpson, solve_tridiagonal

__version__ = "0.1.0"
