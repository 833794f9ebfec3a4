"""Posterior sampling via Hamiltonian SDEs and numerical verification of
integrator convergence orders.

The package simulates the underdamped Langevin SDE

    dr = -grad U(theta) dt - C M^-1 r dt + sqrt(2C) dW,
    dtheta = M^-1 r dt,

whose stationary law is exp(-U(theta) - 1/2 r^T M^-1 r), with a family of
one-step integrators and mini-batch gradient schedules, and measures how fast
their stationary distributions approach the true posterior as the step size
shrinks. Analytic conjugate models provide exact oracles; a matrix operator
lab verifies the splitting-error orders that drive the observed rates.
"""

from hsde.chain import ChainConfig, Trace, run_chain, save_trace
from hsde.core import MassMatrix, RngStream, State
from hsde.integrators import DivergenceError, IntegratorSpec, Scheme

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "DivergenceError",
    "IntegratorSpec",
    "MassMatrix",
    "RngStream",
    "Scheme",
    "State",
    "Trace",
    "run_chain",
    "save_trace",
    "__version__",
]
