"""Optimizers for the two-term residual loss.

Second-order: the Kronecker-factored preconditioner (``kfac`` with grid
line search and heavy-ball momentum, ``kfac_star`` with learning rate and
momentum from a quadratic model whose matrix is the exact Gramian
restricted to span{Delta, prev}, :func:`curvature.projected_gramian`) and
``engd`` (pseudo-inverse of :func:`curvature.dense_gramian`, the one
optimizer that forms the N x D Jacobian rows).  Both reach the Gramian
through these two public calls only.  First-order baselines: heavy-ball
``sgd`` and ``adam``.

:class:`OptimizerConfig` declares the optimizer settings, their defaults
and their checks; :class:`pinnopt.harness.RunConfig` extends it.
:func:`optimizer_step` evaluates the batch once and stops if its loss is
non-finite; the kind's update rule turns that evaluation into an update
and the step-size pair it used, and the step commits the new parameters
only if they are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import curvature, network, pde
from .linalg import pinv_psd
from .taylor import Workspace, taylor_backward

__all__ = [
    "OptimizerConfig",
    "TrainState",
    "StepInfo",
    "LineSearchError",
    "init_train_state",
    "line_search",
    "optimizer_step",
    "evaluate_losses",
]

LINE_SEARCH_GRID = tuple(2.0 ** e for e in range(-30, 1))  # kfac / engd step sizes
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class LineSearchError(FloatingPointError):
    """The loss is non-finite at every grid step size (a FloatingPointError: a failed step)."""


@dataclass
class OptimizerConfig:
    """The optimizer and its hyperparameters; which fields matter depends on ``optimizer``.

    :class:`pinnopt.harness.RunConfig` extends it with the run's own fields,
    so each setting, its default and its check are declared here only.
    """

    optimizer: str
    lr: float = 1e-3              # sgd / adam step size
    momentum: float = 0.0         # kfac / sgd
    ema: float = 0.9              # moving average on curvature factors
    damping: float = 1e-2         # kfac / kfac_star (and optional engd shift)
    init_mode: str = "identity"   # curvature init: zero | identity
    rcond: float = 1e-10          # engd pseudo-inverse cutoff

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; known: {OPTIMIZER_KINDS}")
        for name in ("lr", "momentum", "damping", "rcond"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.ema < 1.0:
            raise ValueError(f"ema must lie in [0, 1), got {self.ema}")
        if self.momentum < 0.0:
            raise ValueError(f"momentum must be >= 0, got {self.momentum}")
        if self.init_mode not in ("zero", "identity"):
            raise ValueError(f"init_mode must be 'zero' or 'identity', got {self.init_mode!r}")
        if not self.rcond >= 0.0:
            raise ValueError(f"rcond must be >= 0, got {self.rcond}")
        if self.optimizer in ("kfac", "kfac_star") and self.damping <= 0.0:
            raise ValueError(f"{self.optimizer} requires damping > 0")
        if self.optimizer in ("sgd", "adam") and self.lr <= 0.0:
            raise ValueError(f"{self.optimizer} requires lr > 0")
        if self.optimizer == "engd" and self.damping < 0.0:
            raise ValueError("engd damping must be >= 0")


@dataclass
class TrainState:
    """Mutable optimizer state owned by one training loop.

    ``workspace`` holds the arrays a step writes its records, projected
    rows and line-search candidates into, and those of the step-0 losses
    of :func:`pinnopt.harness.run_training`; it is reused from one step to
    the next.
    """

    params: network.Parameters
    config: OptimizerConfig
    step: int = 0
    prev_update: np.ndarray | None = None  # parameter-space vector
    kfac: curvature.KfacState | None = None
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    gramian_ema: np.ndarray | None = None
    workspace: Workspace = field(default_factory=lambda: Workspace(worker=True), repr=False)


def init_train_state(params: network.Parameters, config: OptimizerConfig) -> TrainState:
    """Fresh state for ``config``; raises ValueError for a config the net cannot run.

    engd's dense Gramian is refused here, above
    :data:`curvature.DENSE_GRAMIAN_CAP` parameters, so that
    :func:`pinnopt.harness.run_training` reports it before opening its log.
    """
    config.validate()
    d = params.n_params
    if config.optimizer == "engd" and d > curvature.DENSE_GRAMIAN_CAP:
        raise ValueError(
            f"engd materializes the dense Gramian; {d} parameters exceed the "
            f"cap {curvature.DENSE_GRAMIAN_CAP}"
        )
    state = TrainState(params=params, config=config, prev_update=np.zeros(d))
    if config.optimizer in ("kfac", "kfac_star"):
        state.kfac = curvature.init_kfac_state(
            params, config.ema, config.damping, config.init_mode
        )
    if config.optimizer == "adam":
        state.adam_m = np.zeros(d)
        state.adam_v = np.zeros(d)
    if config.optimizer == "engd" and config.ema > 0.0:
        state.gramian_ema = (
            np.zeros((d, d)) if config.init_mode == "zero" else np.eye(d)
        )
    return state


# ---------------------------------------------------------------------------
# loss / gradient evaluation shared by all steps

@dataclass
class BatchEval:
    """Everything one pass over a batch produces.

    ``interior`` and ``boundary`` are the two loss terms' records: per
    linear layer the pair (layer input, per-sample output gradient) of
    :func:`curvature.layer_pairs` (S = d + 2 operator columns) and
    :func:`curvature.boundary_pairs` (S = 1).  The reverse passes are
    seeded with the residuals' output derivatives, not the residual
    values (``problem.residual_grads``; dr/du = 1 for the condition), so the
    same records give the Kronecker factors, the Gauss-Newton rows and,
    contracted with the residuals, the gradient vector ``grad``.

    The interior record's arrays live in the workspace :func:`evaluate_batch`
    was given, so a ``BatchEval`` stays valid only until the next pass
    through that workspace; copy what must outlive it.  The line search of
    kfac and engd is such a pass: its one :func:`evaluate_losses` call
    writes every candidate's hidden states into the same state arrays, so
    those steps read the records, ``grad`` and the direction before it and
    only the loss floats after it.
    """

    loss_interior: float
    loss_boundary: float
    residuals_int: np.ndarray
    residuals_bnd: np.ndarray
    interior: list
    boundary: list
    grad: np.ndarray


def evaluate_losses(candidates, batch: pde.Batch, problem, workspace=None) -> list:
    """``(loss_int, loss_bnd)`` of each parameter set of ``candidates``, for the
    kfac and engd line search and the step-0 losses.

    The interior terms come from one :func:`pde.interior_losses` split, in
    which each half of the batch scores every candidate with the
    output-only forward pass; the losses equal those of
    :func:`evaluate_batch` up to rounding in the last bits.  The condition
    terms are computed on the caller afterwards.  The hidden states are
    written into ``workspace`` and overwrite the record of a ``BatchEval``
    made in it.
    """
    losses_int = pde.interior_losses(problem, candidates, batch, workspace)
    return [
        (loss_int, pde.boundary_loss(problem, params, batch)[0])
        for loss_int, params in zip(losses_int, candidates)
    ]


def evaluate_batch(params, batch: pde.Batch, problem, workspace=None) -> BatchEval:
    """Losses, both records and the gradient of one batch, written into ``workspace``.

    None means a fresh workspace, whose arrays nothing else reuses.
    """
    if workspace is None:
        workspace = Workspace()
    loss_int, r_int, states, out = pde.interior_loss_and_residuals(
        problem, params, batch, workspace
    )
    seeds = problem.residual_grads(batch.interior, out.value, out.gradient, out.operator)
    adjoints = taylor_backward(params, states, seeds, problem.coeffs, workspace)
    interior = curvature.layer_pairs(params, states, adjoints)

    loss_bnd, r_bnd, inputs = pde.boundary_loss(problem, params, batch)
    boundary = curvature.boundary_pairs(inputs, network.backward_batch(params, inputs))

    return BatchEval(
        loss_interior=loss_int,
        loss_boundary=loss_bnd,
        residuals_int=r_int,
        residuals_bnd=r_bnd,
        interior=interior,
        boundary=boundary,
        grad=curvature.loss_gradient(interior, r_int, boundary, r_bnd, workspace),
    )


# ---------------------------------------------------------------------------
# line search

def line_search(loss_fn, params, direction, grid) -> tuple:
    """Grid argmin of the loss over the candidates ``params + alpha * direction``.

    The candidates are built once, one per ``alpha`` of ``grid``, and
    ``loss_fn`` is called once with the whole list; it returns one loss per
    candidate, in order.  ``grid`` is ascending and ties keep the smaller
    step, so a flat landscape returns the smallest candidate.  A
    non-finite loss skips its candidate.  Raises :class:`LineSearchError`
    if no candidate yields a finite loss.
    """
    losses = loss_fn([network.add_scaled(params, direction, alpha) for alpha in grid])
    best_alpha = None
    best_loss = np.inf
    for alpha, loss in zip(grid, losses):
        if np.isfinite(loss) and loss < best_loss:
            best_alpha = alpha
            best_loss = loss
    if best_alpha is None:
        raise LineSearchError("loss is non-finite at every line-search step size")
    return best_alpha, best_loss


# ---------------------------------------------------------------------------
# steps: each kind's update rule maps (state, ev, batch, problem) to (update, alpha, mu)

@dataclass
class StepInfo:
    alpha: float
    mu: float
    loss_interior: float
    loss_boundary: float

    @property
    def loss_total(self) -> float:
        return self.loss_interior + self.loss_boundary


def _kfac_direction(state: TrainState, ev: BatchEval) -> np.ndarray:
    """Shared start of both Kronecker steps: factor updates, then the preconditioned gradient."""
    curvature.interior_factor_update(state.kfac, state.params, ev.interior, state.workspace)
    curvature.boundary_factor_update(state.kfac, ev.boundary)
    return curvature.precondition_gradient(state.kfac, ev.grad)


def _line_search_update(state: TrainState, batch: pde.Batch, problem, direction) -> tuple:
    """Grid line search along ``direction`` (kfac, engd): ``(alpha * direction, alpha)``.

    One :func:`evaluate_losses` call scores all the grid's candidates.
    """

    def loss_fn(candidates):
        return [
            loss_int + loss_bnd
            for loss_int, loss_bnd in evaluate_losses(candidates, batch, problem, state.workspace)
        ]

    alpha, _ = line_search(loss_fn, state.params, direction, LINE_SEARCH_GRID)
    return alpha * direction, alpha


def kfac_step(state: TrainState, ev: BatchEval, batch: pde.Batch, problem) -> tuple:
    mu = state.config.momentum
    delta = _kfac_direction(state, ev)
    update, alpha = _line_search_update(state, batch, problem, delta + mu * state.prev_update)
    return update, alpha, mu


def solve_quadratic_model(model, rhs) -> tuple:
    """Minimize the quadratic model over (alpha, mu).

    ``model`` is the k x k matrix of the k <= 2 directions (Delta, then
    prev_update) under the damped Gramian inner product, ``rhs`` their
    products with the gradient; the minimizer solves ``model [alpha, mu] =
    -rhs``.  A single direction, or a singular 2 x 2 system, falls back to
    the alpha-only solve.  The off-diagonal entry is read from column 1,
    ``model[0][1]``: a projected Gramian is symmetric only up to rounding.
    """
    tiny = 1e-300
    m11, rhs1 = model[0][0], rhs[0]
    if len(rhs) == 2:
        m12, m22, rhs2 = model[0][1], model[1][1], rhs[1]
        det = m11 * m22 - m12 * m12
        scale = max(abs(m11 * m22), m12 * m12, tiny)
        if det > 1e-12 * scale:
            alpha = (-rhs1 * m22 + rhs2 * m12) / det
            mu = (rhs1 * m12 - rhs2 * m11) / det
            return alpha, mu
    if m11 <= tiny:
        return 0.0, 0.0
    return -rhs1 / m11, 0.0


def kfac_star_step(state: TrainState, ev: BatchEval, batch: pde.Batch, problem) -> tuple:
    """Kronecker-preconditioned direction with model-optimal (alpha, mu).

    The update is ``alpha * Delta + mu * prev``.  The model matrix is
    ``V^T G V + damping * V^T V`` for V = [Delta, prev] (only Delta while
    prev is zero), with ``V^T G V`` from :func:`curvature.projected_gramian`.
    """
    dv = _kfac_direction(state, ev)
    pv, lam = state.prev_update, state.config.damping
    basis = [dv, pv] if pv @ pv > 0.0 else [dv]
    gram = curvature.projected_gramian(ev.interior, ev.boundary, basis, state.workspace)
    model = [[float(gram[i, j] + (lam * u) @ v) for j, v in enumerate(basis)] for i, u in enumerate(basis)]
    alpha, mu = solve_quadratic_model(model, [float(v @ ev.grad) for v in basis])
    return alpha * dv + mu * pv, alpha, mu


def engd_step(state: TrainState, ev: BatchEval, batch: pde.Batch, problem) -> tuple:
    cfg = state.config
    gram = curvature.dense_gramian(ev.interior, ev.boundary)
    if state.gramian_ema is not None:
        state.gramian_ema = curvature.ema_update(state.gramian_ema, gram, cfg.ema)
        gram = state.gramian_ema
    if cfg.damping > 0.0:
        gram = gram + cfg.damping * np.eye(gram.shape[0])

    direction = -(pinv_psd(gram, cfg.rcond) @ ev.grad)
    update, alpha = _line_search_update(state, batch, problem, direction)
    return update, alpha, 0.0


def sgd_step(state: TrainState, ev: BatchEval, batch: pde.Batch, problem) -> tuple:
    cfg = state.config
    velocity = cfg.momentum * state.prev_update + -cfg.lr * ev.grad
    return velocity, cfg.lr, cfg.momentum


def adam_step(state: TrainState, ev: BatchEval, batch: pde.Batch, problem) -> tuple:
    cfg = state.config
    t = state.step + 1
    b1, b2, g = ADAM_BETA1, ADAM_BETA2, ev.grad
    state.adam_m = b1 * state.adam_m + (1.0 - b1) * g
    state.adam_v = b2 * state.adam_v + (1.0 - b2) * g * g
    m_hat = state.adam_m / (1.0 - b1 ** t)
    v_hat = state.adam_v / (1.0 - b2 ** t)
    return -cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), cfg.lr, 0.0


_STEP_FNS = {
    "kfac": kfac_step,
    "kfac_star": kfac_star_step,
    "engd": engd_step,
    "sgd": sgd_step,
    "adam": adam_step,
}
OPTIMIZER_KINDS = tuple(_STEP_FNS)


def optimizer_step(state: TrainState, batch: pde.Batch, problem) -> StepInfo:
    """One step of ``state.config.optimizer``; the one place that decides a step failed.

    The one evaluation of the batch and the one place that applies the
    update ``(update, alpha, mu)`` of the kind's rule and advances the state.
    A failed step raises ``FloatingPointError`` (a non-finite batch loss,
    before the rule runs; :class:`LineSearchError`; non-finite new
    parameters) or ``numpy.linalg.LinAlgError`` (a failed or rejected
    factorization) and leaves the parameters, ``prev_update`` and ``step``
    as they were.
    """
    ev = evaluate_batch(state.params, batch, problem, state.workspace)
    if not math.isfinite(ev.loss_interior + ev.loss_boundary):
        raise FloatingPointError(
            f"the loss is non-finite (interior {ev.loss_interior}, condition {ev.loss_boundary})"
        )
    update, alpha, mu = _STEP_FNS[state.config.optimizer](state, ev, batch, problem)
    params = network.add_scaled(state.params, update, 1.0)
    if not np.all(np.isfinite(params.vector)):
        raise FloatingPointError("parameters became non-finite during the step")
    state.params, state.prev_update = params, update
    state.step += 1
    return StepInfo(alpha, mu, ev.loss_interior, ev.loss_boundary)
