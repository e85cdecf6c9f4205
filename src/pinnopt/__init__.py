"""Curvature-preconditioned training of MLP solvers for second-order PDEs.

The package propagates value, gradient, and differential-operator columns
through a tanh network in one forward sweep, assembles Kronecker-factored
or exact Gauss-Newton curvature of the residual loss from the same
intermediates, and wraps the optimizers in a reproducible training
harness with a small PDE catalog.
"""

from .curvature import init_kfac_state, precondition_gradient
from .harness import RunConfig, TrainLog, eval_l2, run_training
from .linalg import kron_sum_solve, pinv_psd, sym_eig
from .network import Architecture, Parameters, forward_batch, init_params
from .optim import OptimizerConfig, init_train_state, optimizer_step
from .pde import PROBLEM_NAMES, make_problem, sample_batch
from .taylor import OperatorCoeffs, taylor_backward, taylor_forward

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "OperatorCoeffs",
    "OptimizerConfig",
    "Parameters",
    "PROBLEM_NAMES",
    "RunConfig",
    "TrainLog",
    "eval_l2",
    "forward_batch",
    "init_kfac_state",
    "init_params",
    "init_train_state",
    "kron_sum_solve",
    "make_problem",
    "optimizer_step",
    "pinv_psd",
    "precondition_gradient",
    "run_training",
    "sample_batch",
    "sym_eig",
    "taylor_backward",
    "taylor_forward",
]
