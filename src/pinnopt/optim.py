"""Optimizers for the two-term residual loss.

Second-order: the Kronecker-factored preconditioner (``kfac`` with grid
line search and heavy-ball momentum, ``kfac_star`` with learning rate and
momentum from a quadratic model built with exact Gramian-vector products)
and ``engd`` (exact Gramian pseudo-inverse).  First-order baselines:
heavy-ball ``sgd`` and ``adam``.

A step consumes the current batch, mutates the :class:`TrainState` in
place and reports the losses it saw plus the step-size pair it used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvature, network, pde
from .linalg import pinv_psd
from .taylor import taylor_backward

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

OPTIMIZER_KINDS = ("kfac", "kfac_star", "engd", "sgd", "adam")


class LineSearchError(RuntimeError):
    """Raised when the loss is non-finite at every grid step size."""


@dataclass
class OptimizerConfig:
    """Hyperparameters; which fields matter depends on ``kind``."""

    kind: str
    lr: float = 1e-3              # sgd / adam step size
    momentum: float = 0.0         # kfac / sgd
    ema: float = 0.9              # moving average on curvature factors
    damping: float = 1e-2         # kfac / kfac_star (and optional engd shift)
    init_mode: str = "identity"   # curvature init: zero | identity
    rcond: float = 1e-10          # engd pseudo-inverse cutoff
    line_search_min_exp: int = -30
    line_search_max_exp: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.kind!r}; known: {OPTIMIZER_KINDS}")
        if not 0.0 <= self.ema < 1.0:
            raise ValueError(f"ema must lie in [0, 1), got {self.ema}")
        if self.momentum < 0.0:
            raise ValueError(f"momentum must be >= 0, got {self.momentum}")
        if self.kind in ("kfac", "kfac_star") and self.damping <= 0.0:
            raise ValueError(f"{self.kind} requires damping > 0")
        if self.kind in ("sgd", "adam") and self.lr <= 0.0:
            raise ValueError(f"{self.kind} requires lr > 0")
        if self.kind == "engd" and self.damping < 0.0:
            raise ValueError("engd damping must be >= 0")
        if self.line_search_min_exp > self.line_search_max_exp:
            raise ValueError("line search exponent range is empty")

    def line_search_grid(self):
        return [2.0 ** e for e in range(self.line_search_min_exp, self.line_search_max_exp + 1)]


@dataclass
class TrainState:
    """Mutable optimizer state owned by one training loop."""

    params: network.Parameters
    config: OptimizerConfig
    step: int = 0
    prev_update: list = field(default_factory=list)  # per-layer [dW | db] mats
    kfac: curvature.KfacState | None = None
    adam_m: list = field(default_factory=list)
    adam_v: list = field(default_factory=list)
    gramian_ema: np.ndarray | None = None


def _zero_mats(params):
    return [
        np.zeros((w.shape[0], w.shape[1] + 1))
        for w in params.weights
    ]


def init_train_state(params: network.Parameters, config: OptimizerConfig) -> TrainState:
    config.validate()
    state = TrainState(params=params, config=config, prev_update=_zero_mats(params))
    if config.kind in ("kfac", "kfac_star"):
        state.kfac = curvature.init_kfac_state(
            params, config.ema, config.damping, config.init_mode
        )
    if config.kind == "adam":
        state.adam_m = _zero_mats(params)
        state.adam_v = _zero_mats(params)
    if config.kind == "engd" and config.ema > 0.0:
        d = params.n_params
        state.gramian_ema = (
            np.zeros((d, d)) if config.init_mode == "zero" else np.eye(d)
        )
    return state


# ---------------------------------------------------------------------------
# loss / gradient evaluation shared by all steps

@dataclass
class BatchEval:
    """Everything one pass over a batch produces.

    The reverse passes are seeded with the residuals' output derivatives
    (not the residual values), so the per-sample layer gradients double as
    Gauss-Newton rows; the loss gradient is the residual-weighted
    contraction of the same intermediates.
    """

    loss_interior: float
    loss_boundary: float
    residuals_int: np.ndarray
    residuals_bnd: np.ndarray
    states: list
    taylor_grads: object
    boundary_trace: object
    boundary_grads: list
    grad_mats: list

    @property
    def loss_total(self) -> float:
        return self.loss_interior + self.loss_boundary


def evaluate_losses(params, batch: pde.Batch, problem) -> tuple:
    """Interior and condition losses only, for the kfac and engd line search.

    The interior term comes from :func:`pde.interior_loss`, whose forward
    pass keeps no layer state; the losses equal those of
    :func:`evaluate_batch` up to rounding in the last bits.
    """
    loss_int = pde.interior_loss(problem, params, batch)
    loss_bnd, _, _ = pde.boundary_loss(problem, params, batch)
    return loss_int, loss_bnd


def evaluate_batch(params, batch: pde.Batch, problem) -> BatchEval:
    loss_int, r_int, states, out = pde.interior_loss_and_residuals(problem, params, batch)
    du, dgrad, dop = problem.residual_grads(batch.interior, out.value, out.gradient, out.operator)
    seeds = np.concatenate([du[:, None], dgrad, dop[:, None]], axis=1)
    tg = taylor_backward(params, states, seeds, problem.coeffs)

    loss_bnd, r_bnd, trace = pde.boundary_loss(problem, params, batch)
    bgrads = network.backward_batch(params, trace, np.ones(r_bnd.size))

    grad_mats = curvature.loss_gradient(
        params, states, tg.layer_grads, r_int, trace, bgrads, r_bnd
    )
    return BatchEval(
        loss_interior=loss_int,
        loss_boundary=loss_bnd,
        residuals_int=r_int,
        residuals_bnd=r_bnd,
        states=states,
        taylor_grads=tg,
        boundary_trace=trace,
        boundary_grads=bgrads,
        grad_mats=grad_mats,
    )


# ---------------------------------------------------------------------------
# line search

def line_search(loss_fn, params, direction, grid) -> tuple:
    """Grid argmin of ``loss_fn(params + alpha * direction)``.

    ``grid`` is iterated in ascending order and ties keep the smaller
    step, so a flat landscape returns the smallest candidate.  Raises
    :class:`LineSearchError` if no candidate yields a finite loss.
    """
    best_alpha = None
    best_loss = np.inf
    for alpha in grid:
        loss = loss_fn(network.add_scaled(params, direction, alpha))
        if np.isfinite(loss) and loss < best_loss:
            best_alpha = alpha
            best_loss = loss
    if best_alpha is None:
        raise LineSearchError("loss is non-finite at every line-search step size")
    return best_alpha, best_loss


# ---------------------------------------------------------------------------
# steps

@dataclass
class StepInfo:
    alpha: float
    mu: float
    loss_interior: float
    loss_boundary: float

    @property
    def loss_total(self) -> float:
        return self.loss_interior + self.loss_boundary


def _mats_add(a, b, scale=1.0):
    return [x + scale * y for x, y in zip(a, b)]


def _mats_scale(a, s):
    return [s * x for x in a]


def _kfac_common(state: TrainState, batch, problem):
    """Shared start of both Kronecker steps: factors, gradient, direction."""
    ev = evaluate_batch(state.params, batch, problem)
    lin_in, lin_gr = curvature.layer_pairs(state.params, ev.states, ev.taylor_grads.layer_grads)
    curvature.interior_factor_update(state.kfac, lin_in, lin_gr)
    curvature.boundary_factor_update(
        state.kfac, ev.boundary_trace.linear_inputs, ev.boundary_grads
    )
    delta = curvature.precondition_gradient(state.kfac, ev.grad_mats)
    return ev, delta


def kfac_step(state: TrainState, batch: pde.Batch, problem) -> StepInfo:
    cfg = state.config
    ev, delta = _kfac_common(state, batch, problem)
    direction = _mats_add(delta, state.prev_update, scale=cfg.momentum)

    def loss_fn(p):
        return sum(evaluate_losses(p, batch, problem))

    alpha, _ = line_search(loss_fn, state.params, direction, cfg.line_search_grid())
    state.params = network.add_scaled(state.params, direction, alpha)
    state.prev_update = _mats_scale(direction, alpha)
    state.step += 1
    return StepInfo(alpha, cfg.momentum, ev.loss_interior, ev.loss_boundary)


def solve_quadratic_model(have_prev, m11, m12, m22, rhs1, rhs2) -> tuple:
    """Minimize the quadratic model over (alpha, mu).

    The model matrix is the symmetric Gram matrix of (Delta, prev_update)
    under the damped Gramian inner product with right-hand side
    -(Delta . g, prev . g); a singular system falls back to the
    alpha-only solve.
    """
    tiny = 1e-300
    det = m11 * m22 - m12 * m12
    scale = max(abs(m11 * m22), m12 * m12, tiny)
    if have_prev and det > 1e-12 * scale:
        alpha = (-rhs1 * m22 + rhs2 * m12) / det
        mu = (rhs1 * m12 - rhs2 * m11) / det
        return alpha, mu
    if m11 <= tiny:
        return 0.0, 0.0
    return -rhs1 / m11, 0.0


def _rows_from_eval(params, ev: BatchEval) -> tuple:
    """Residual-Jacobian rows assembled from an existing batch evaluation."""
    rows_int = curvature._interior_jacobian_rows(params, ev.states, ev.taylor_grads.layer_grads)
    rows_bnd = curvature._boundary_jacobian_rows(params, ev.boundary_trace, ev.boundary_grads)
    return rows_int, rows_bnd


def kfac_star_step(state: TrainState, batch: pde.Batch, problem) -> StepInfo:
    cfg = state.config
    ev, delta = _kfac_common(state, batch, problem)

    rows_int, rows_bnd = _rows_from_eval(state.params, ev)
    dv = network.mats_to_vec(delta)
    pv = network.mats_to_vec(state.prev_update)
    gv = network.mats_to_vec(ev.grad_mats)
    lam = cfg.damping

    g_dv = curvature.gramian_vec_from_rows(rows_int, rows_bnd, dv)
    m11 = float(dv @ g_dv + lam * dv @ dv)
    rhs1 = float(dv @ gv)
    have_prev = bool(pv @ pv > 0.0)
    if have_prev:
        g_pv = curvature.gramian_vec_from_rows(rows_int, rows_bnd, pv)
        m12 = float(dv @ g_pv + lam * dv @ pv)
        m22 = float(pv @ g_pv + lam * pv @ pv)
        rhs2 = float(pv @ gv)
    else:
        m12 = m22 = rhs2 = 0.0
    alpha, mu = solve_quadratic_model(have_prev, m11, m12, m22, rhs1, rhs2)

    update = _mats_add(_mats_scale(delta, alpha), state.prev_update, scale=mu)
    state.params = network.add_scaled(state.params, update, 1.0)
    state.prev_update = update
    state.step += 1
    return StepInfo(alpha, mu, ev.loss_interior, ev.loss_boundary)


def engd_step(state: TrainState, batch: pde.Batch, problem) -> StepInfo:
    cfg = state.config
    d = state.params.n_params
    if d > curvature.DENSE_GRAMIAN_CAP:
        raise ValueError(
            f"engd materializes the dense Gramian; {d} parameters exceed the "
            f"cap {curvature.DENSE_GRAMIAN_CAP}"
        )
    ev = evaluate_batch(state.params, batch, problem)
    rows_int, rows_bnd = _rows_from_eval(state.params, ev)
    gram = np.zeros((d, d))
    if rows_int.shape[0]:
        gram += rows_int.T @ rows_int / rows_int.shape[0]
    if rows_bnd.shape[0]:
        gram += rows_bnd.T @ rows_bnd / rows_bnd.shape[0]
    gram = 0.5 * (gram + gram.T)
    if state.gramian_ema is not None:
        state.gramian_ema = curvature.ema_update(state.gramian_ema, gram, cfg.ema)
        gram = state.gramian_ema
    if cfg.damping > 0.0:
        gram = gram + cfg.damping * np.eye(d)

    gv = network.mats_to_vec(ev.grad_mats)
    direction_vec = -(pinv_psd(gram, cfg.rcond) @ gv)
    direction = network.vec_to_mats(direction_vec, state.params)

    def loss_fn(p):
        return sum(evaluate_losses(p, batch, problem))

    alpha, _ = line_search(loss_fn, state.params, direction, cfg.line_search_grid())
    state.params = network.add_scaled(state.params, direction, alpha)
    state.prev_update = _mats_scale(direction, alpha)
    state.step += 1
    return StepInfo(alpha, 0.0, ev.loss_interior, ev.loss_boundary)


def sgd_step(state: TrainState, batch: pde.Batch, problem) -> StepInfo:
    cfg = state.config
    ev = evaluate_batch(state.params, batch, problem)
    velocity = _mats_add(_mats_scale(state.prev_update, cfg.momentum), ev.grad_mats, -cfg.lr)
    state.params = network.add_scaled(state.params, velocity, 1.0)
    state.prev_update = velocity
    state.step += 1
    return StepInfo(cfg.lr, cfg.momentum, ev.loss_interior, ev.loss_boundary)


def adam_step(state: TrainState, batch: pde.Batch, problem) -> StepInfo:
    cfg = state.config
    ev = evaluate_batch(state.params, batch, problem)
    t = state.step + 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    update = []
    for l, g in enumerate(ev.grad_mats):
        state.adam_m[l] = b1 * state.adam_m[l] + (1.0 - b1) * g
        state.adam_v[l] = b2 * state.adam_v[l] + (1.0 - b2) * g * g
        m_hat = state.adam_m[l] / (1.0 - b1 ** t)
        v_hat = state.adam_v[l] / (1.0 - b2 ** t)
        update.append(-cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps))
    state.params = network.add_scaled(state.params, update, 1.0)
    state.prev_update = update
    state.step += 1
    return StepInfo(cfg.lr, 0.0, ev.loss_interior, ev.loss_boundary)


_STEP_FNS = {
    "kfac": kfac_step,
    "kfac_star": kfac_star_step,
    "engd": engd_step,
    "sgd": sgd_step,
    "adam": adam_step,
}


def optimizer_step(state: TrainState, batch: pde.Batch, problem) -> StepInfo:
    """Dispatch one optimization step; raises on non-finite parameters."""
    info = _STEP_FNS[state.config.kind](state, batch, problem)
    for w, b in zip(state.params.weights, state.params.biases):
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise FloatingPointError("parameters became non-finite during the step")
    return info
