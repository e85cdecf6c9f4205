"""Optimizers for the two-term residual loss.

Second-order: the Kronecker-factored preconditioner (``kfac`` with grid
line search and heavy-ball momentum, ``kfac_star`` with learning rate and
momentum from a quadratic model whose matrix is the exact Gramian
restricted to span{Delta, prev}, :func:`curvature.projected_gramian`) and
``engd`` (pseudo-inverse of :func:`curvature.dense_gramian`, the one
optimizer that forms the N x D Jacobian rows).  Both reach the Gramian
through these two public calls only.  The grid line search of kfac and
engd scores a window of the grid around the previous step size, widened
while its best point sits on an edge.  First-order baselines: heavy-ball
``sgd`` and ``adam``.

:data:`KINDS` holds one :class:`OptimizerKind` per kind: its update rule,
the initializer of its own state (``TrainState.memory``), its default
batch period and the setting it requires > 0.  No code branches on a
kind's name, so a new kind is one entry plus its functions.
:class:`OptimizerConfig` declares the optimizer settings, their defaults
and their checks; :class:`pinnopt.harness.RunConfig` extends it.
:func:`optimizer_step` evaluates the batch once and stops if its loss is
non-finite; the kind's update rule turns that evaluation into an update
and the step-size pair it used, and the step commits the new parameters
only if they are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

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
LINE_SEARCH_WINDOW = 2  # half-width of the grid window around the previous step's index
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class LineSearchError(FloatingPointError):
    """The loss is non-finite at every grid step size (a FloatingPointError: a failed step)."""


#: the types a config field accepts, by its annotation's text (a bool is never a number)
_FIELD_TYPES = {
    "str": str,
    "list": (list, tuple),
    "dict": dict,
    "int": int,
    "int | None": (int, type(None)),
    "float": (int, float),
}


@dataclass(frozen=True)
class OptimizerConfig:
    """The optimizer and its hyperparameters; which fields matter depends on ``optimizer``.

    :class:`pinnopt.harness.RunConfig` extends it with the run's own fields,
    so each setting, its default and its check are declared here only.
    Construction type-checks every field, a subclass's too, with :meth:`check_field`,
    then checks the ranges, which a subclass extends in ``__post_init__``.  The
    config is frozen: ``dataclasses.replace`` builds a checked copy with new values.
    """

    optimizer: str
    lr: float = 1e-3              # sgd / adam step size
    momentum: float = 0.0         # kfac / sgd
    ema: float = 0.9              # moving average on curvature factors
    damping: float = 1e-2         # kfac / kfac_star (and optional engd shift); >= 0 for every kind
    init_mode: str = "identity"   # curvature init: zero | identity
    rcond: float = 1e-10          # engd pseudo-inverse cutoff

    @classmethod
    def check_field(cls, name: str, value):
        """Raise ValueError unless ``value`` fits field ``name``'s type (and is finite, for a float)."""
        kind = next(f.type for f in fields(cls) if f.name == name)
        if not isinstance(value, _FIELD_TYPES[kind]) or isinstance(value, bool):
            raise ValueError(f"config field {name} must be {kind}, got {value!r}")
        if kind == "float" and not math.isfinite(value):
            raise ValueError(f"config field {name} must be finite, got {value!r}")

    def __post_init__(self):
        for f in fields(self):
            self.check_field(f.name, getattr(self, f.name))
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; known: {OPTIMIZER_KINDS}")
        if not 0.0 <= self.ema < 1.0:
            raise ValueError(f"ema must lie in [0, 1), got {self.ema}")
        if self.momentum < 0.0:
            raise ValueError(f"momentum must be >= 0, got {self.momentum}")
        if self.init_mode not in ("zero", "identity"):
            raise ValueError(f"init_mode must be 'zero' or 'identity', got {self.init_mode!r}")
        if self.rcond < 0.0:
            raise ValueError(f"rcond must be >= 0, got {self.rcond}")
        if self.damping < 0.0:
            raise ValueError(f"damping must be >= 0, got {self.damping}")
        positive = KINDS[self.optimizer].positive
        if positive is not None and getattr(self, positive) <= 0.0:
            raise ValueError(f"{self.optimizer} requires {positive} > 0")


@dataclass
class TrainState:
    """Mutable optimizer state owned by one training loop.

    ``workspace`` holds the arrays a step writes its records, projected
    rows and line-search candidates into, and those of the step-0 losses
    of :func:`pinnopt.harness.run_training`; it is reused from one step to
    the next.  ``prev_update`` and ``prev_alpha`` are the last committed
    step's update and step size (zeros and None before the first step);
    the line search centres its window on ``prev_alpha``.  ``memory`` is
    the kind's own state, built by its :attr:`OptimizerKind.init` and
    advanced by its update rule.  A checkpoint stores none of the three.
    """

    params: network.Parameters
    config: OptimizerConfig  # frozen; a setting changes by replacing it with a dataclasses.replace copy
    step: int = 0
    prev_update: np.ndarray | None = None  # parameter-space vector
    prev_alpha: float | None = None
    memory: object = None
    workspace: Workspace = field(default_factory=lambda: Workspace(worker=True), repr=False)


def init_train_state(params: network.Parameters, config: OptimizerConfig) -> TrainState:
    """Fresh state for ``config``; raises ValueError for a config the net cannot run.

    ``config`` was checked when it was built and cannot change.  What is
    checked here is what needs the net, by the kind's
    :attr:`OptimizerKind.init` (engd's cap on the dense Gramian), so that
    :func:`pinnopt.harness.run_training` reports it before opening its log.
    """
    memory = KINDS[config.optimizer].init(params, config)
    return TrainState(params=params, config=config, prev_update=np.zeros(params.n_params), memory=memory)


# ---------------------------------------------------------------------------
# loss / gradient evaluation shared by all steps

@dataclass
class BatchEval:
    """Everything one pass over a batch produces.

    ``interior`` and ``boundary`` are the two loss terms' records: per
    linear layer the pair (layer input, per-sample output gradient), as
    :func:`taylor_backward` returns it (S = d + 2 operator columns) and
    :func:`curvature.boundary_pairs` makes it (S = 1).  The reverse passes are
    seeded with the residuals' output derivatives, not the residual
    values (``problem.residual_grads``; dr/du = 1 for the condition), so the
    same records give the Kronecker factors, the Gauss-Newton rows and,
    contracted with the residuals, the gradient vector ``grad``.

    The interior record's arrays live in the workspace :func:`evaluate_batch`
    was given, so a ``BatchEval`` stays valid only until the next pass
    through that workspace; copy what must outlive it.  The line search of
    kfac and engd is such a pass: each of its :func:`evaluate_losses` calls
    writes its candidates' hidden states into the same state arrays, so
    those steps read the records, ``grad`` and the direction before the
    search and only the loss floats after it.
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
    interior = taylor_backward(params, states, seeds, problem.coeffs, workspace)

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

def line_search(loss_fn, params, direction, grid, start=None) -> tuple:
    """Grid argmin of the loss over the candidates ``params + alpha * direction``.

    ``start`` None scores the whole grid in one ``loss_fn`` call.  A grid
    index scores the window of ``2 * LINE_SEARCH_WINDOW + 1`` points
    around it; while the best point sits on an edge of the window that the
    grid extends past, the window doubles its width on that side, scoring
    only the new points in one more call.  A window with no finite loss
    falls back to the rest of the grid.  ``loss_fn`` takes a non-empty list
    of candidates, none scored before, and returns one loss per candidate,
    in order.  ``grid`` is ascending and ties keep the smaller step, so a
    flat landscape returns the smallest step.  A non-finite loss skips its
    candidate.  The result is the full-grid argmin whenever the loss is
    unimodal in the grid index, and otherwise a local minimum among its
    scored neighbours.  Raises :class:`LineSearchError` if no candidate
    yields a finite loss.
    """
    n = len(grid)
    if start is not None and not 0 <= start < n:
        raise ValueError(f"start must index the grid of {n} step sizes, got {start}")
    losses = {}

    def score(indices):
        scored = loss_fn([network.add_scaled(params, direction, grid[k]) for k in indices])
        losses.update((k, loss) for k, loss in zip(indices, scored) if np.isfinite(loss))
        # the index of the least finite loss, the smaller one on a tie; None while none is finite
        return min(losses, key=lambda k: (losses[k], k), default=None)

    if start is None:
        lo, hi = 0, n - 1
    else:
        lo, hi = max(start - LINE_SEARCH_WINDOW, 0), min(start + LINE_SEARCH_WINDOW, n - 1)
    best = score(range(lo, hi + 1))
    if best is None and hi - lo + 1 < n:
        best = score([*range(lo), *range(hi + 1, n)])
        lo, hi = 0, n - 1
    while best is not None and (best == lo > 0 or best == hi < n - 1):
        width = hi - lo + 1
        if best == lo:
            new = range(max(lo - width, 0), lo)
            lo = new.start
        else:
            new = range(hi + 1, min(hi + width, n - 1) + 1)
            hi = new.stop - 1
        best = score(new)
    if best is None:
        raise LineSearchError("loss is non-finite at every line-search step size")
    return grid[best], losses[best]


# ---------------------------------------------------------------------------
# kinds: each kind's update rule maps (state, ev, batch, problem) to (update, alpha, mu),
# and its init maps (params, config) to the kind's memory

@dataclass
class StepInfo:
    """One step's step-size pair, and its batch's losses at the parameters before its update."""

    alpha: float
    mu: float
    loss_interior: float
    loss_boundary: float

    @property
    def loss_total(self) -> float:
        return self.loss_interior + self.loss_boundary


def _kfac_init(params: network.Parameters, config: OptimizerConfig) -> curvature.KfacState:
    return curvature.init_kfac_state(params, config.init_mode)


def _kfac_direction(state: TrainState, ev: BatchEval) -> np.ndarray:
    """Shared start of both Kronecker steps: factor updates, then the preconditioned gradient."""
    cfg, kf = state.config, state.memory
    curvature.interior_factor_update(kf, ev.interior, cfg.ema, state.workspace)
    curvature.boundary_factor_update(kf, ev.boundary, cfg.ema)
    return curvature.precondition_gradient(kf, ev.grad, cfg.damping)


def _line_search_update(state: TrainState, batch: pde.Batch, problem, direction) -> tuple:
    """Grid line search along ``direction`` (kfac, engd): ``(alpha * direction, alpha)``.

    The search centres on the grid index of ``state.prev_alpha``, and scores
    the whole grid when that is no grid value (the first step).  Each
    ``loss_fn`` call of :func:`line_search` is one :func:`evaluate_losses`
    call.
    """

    def loss_fn(candidates):
        return [
            loss_int + loss_bnd
            for loss_int, loss_bnd in evaluate_losses(candidates, batch, problem, state.workspace)
        ]

    grid = LINE_SEARCH_GRID
    start = grid.index(state.prev_alpha) if state.prev_alpha in grid else None
    alpha, _ = line_search(loss_fn, state.params, direction, grid, start)
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


def _engd_init(params: network.Parameters, config: OptimizerConfig) -> np.ndarray | None:
    """The Gramian's moving average, None at ``ema`` 0; refuses a net above
    :data:`curvature.DENSE_GRAMIAN_CAP` parameters."""
    if params.n_params > curvature.DENSE_GRAMIAN_CAP:
        raise ValueError(
            f"engd materializes the dense Gramian; {params.n_params} parameters exceed the "
            f"cap {curvature.DENSE_GRAMIAN_CAP}"
        )
    return curvature.initial_curvature(params.n_params, config.init_mode) if config.ema > 0.0 else None


def engd_step(state: TrainState, ev: BatchEval, batch: pde.Batch, problem) -> tuple:
    cfg = state.config
    gram = curvature.dense_gramian(ev.interior, ev.boundary)
    if state.memory is not None:
        state.memory = curvature.ema_update(state.memory, gram, cfg.ema)
        gram = state.memory
    if cfg.damping > 0.0:
        gram = gram + cfg.damping * np.eye(gram.shape[0])

    direction = -(pinv_psd(gram, cfg.rcond) @ ev.grad)
    update, alpha = _line_search_update(state, batch, problem, direction)
    return update, alpha, 0.0


def sgd_step(state: TrainState, ev: BatchEval, batch: pde.Batch, problem) -> tuple:
    cfg = state.config
    velocity = cfg.momentum * state.prev_update + -cfg.lr * ev.grad
    return velocity, cfg.lr, cfg.momentum


def _adam_init(params: network.Parameters, config: OptimizerConfig) -> tuple:
    """The first and second moment vectors, two separate zero arrays."""
    return np.zeros(params.n_params), np.zeros(params.n_params)


def adam_step(state: TrainState, ev: BatchEval, batch: pde.Batch, problem) -> tuple:
    cfg = state.config
    t = state.step + 1
    b1, b2, g = ADAM_BETA1, ADAM_BETA2, ev.grad
    m = b1 * state.memory[0] + (1.0 - b1) * g
    v = b2 * state.memory[1] + (1.0 - b2) * g * g
    state.memory = m, v
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return -cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), cfg.lr, 0.0


@dataclass(frozen=True)
class OptimizerKind:
    """Everything particular to one optimizer kind.

    ``step`` is the update rule ``(state, ev, batch, problem) -> (update,
    alpha, mu)``; ``resample_every`` the default batch re-sampling period
    (0 = never re-sample); ``init(params, config)`` returns the kind's
    ``TrainState.memory`` (by default None: no state of its own) or raises
    ValueError for a net the kind cannot run; ``positive`` names the config
    setting the kind requires > 0 (None: no such setting).
    """

    step: Callable
    resample_every: int
    init: Callable = lambda params, config: None
    positive: str | None = None


KINDS = {
    "kfac": OptimizerKind(kfac_step, resample_every=100, init=_kfac_init, positive="damping"),
    "kfac_star": OptimizerKind(kfac_star_step, resample_every=100, init=_kfac_init, positive="damping"),
    "engd": OptimizerKind(engd_step, resample_every=1, init=_engd_init),
    "sgd": OptimizerKind(sgd_step, resample_every=1, positive="lr"),
    "adam": OptimizerKind(adam_step, resample_every=1, init=_adam_init, positive="lr"),
}
OPTIMIZER_KINDS = tuple(KINDS)


def optimizer_step(state: TrainState, batch: pde.Batch, problem) -> StepInfo:
    """One step of ``state.config.optimizer``; the one place that decides a step failed.

    The one evaluation of the batch and the one place that applies the
    update ``(update, alpha, mu)`` of the kind's rule and advances the state.
    A failed step raises ``FloatingPointError`` (a non-finite batch loss,
    before the rule runs; :class:`LineSearchError`; non-finite new
    parameters) or ``numpy.linalg.LinAlgError`` (a failed or rejected
    factorization) and leaves the parameters, ``prev_update``,
    ``prev_alpha`` and ``step`` as they were.  A non-finite batch loss
    leaves ``memory`` too, but a step that fails after its rule ran may
    already have advanced it (the kfac factors before the line search,
    the adam moments, the engd moving average); the run ends as diverged
    anyway.
    """
    ev = evaluate_batch(state.params, batch, problem, state.workspace)
    if not math.isfinite(ev.loss_interior + ev.loss_boundary):
        raise FloatingPointError(
            f"the loss is non-finite (interior {ev.loss_interior}, condition {ev.loss_boundary})"
        )
    update, alpha, mu = KINDS[state.config.optimizer].step(state, ev, batch, problem)
    params = network.add_scaled(state.params, update, 1.0)
    if not np.all(np.isfinite(params.vector)):
        raise FloatingPointError("parameters became non-finite during the step")
    state.params, state.prev_update, state.prev_alpha = params, update, alpha
    state.step += 1
    return StepInfo(alpha, mu, ev.loss_interior, ev.loss_boundary)
