"""Kronecker-factored and exact curvature of the two-term training loss.

Per linear layer and per loss term (interior / condition) one pair of
factors is kept: the input-side factor A over bias-augmented layer inputs
and the gradient-side factor B over layer-output gradients.  The interior
factors average over both the batch and the shared derivative columns
(only the A side carries the 1/S normalization); the condition factors are
the classical input/gradient covariances.  A layer's curvature block is
approximated by ``A_int (x) B_int + A_cond (x) B_cond`` in the
column-stacked ``[W | b]`` flattening, which the damped Kronecker-sum
solver inverts without materializing the block.

The first linear layer's input state is never materialised (see
:mod:`pinnopt.taylor`): ``states[0]`` holds only the points x, and its
columns are ``[x_n 1]`` (value, bias-augmented), ``[e_i 0]`` (derivatives)
and 0 (operator).  Layer 0's terms are therefore taken in closed form:

    A_int  = ([x 1]^T [x 1] + N diag(1_d, 0)) / (N S)
    row_n  = [x_n; 1] g_n0^T + [G_n; 0]      (G_n: derivative block of g_n)

and its gradient contraction uses the same column sum.  Only this module
and :mod:`pinnopt.taylor` know the state layout; the optimizers pass the
forward states and reverse-pass adjoints through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network, pde
from .linalg import kron_sum_solve
from .taylor import (
    linear_input_index,
    linear_output_index,
    param_grad_matrix,
    taylor_backward,
    taylor_forward,
)

__all__ = [
    "KfacState",
    "init_kfac_state",
    "ema_update",
    "layer_pairs",
    "interior_factor_update",
    "boundary_factor_update",
    "precondition_gradient",
    "exact_gramian",
    "gramian_vec",
    "residual_jacobian_rows",
    "loss_gradient",
]

DENSE_GRAMIAN_CAP = 20_000


def _symmetrize(m):
    return 0.5 * (m + m.T)


@dataclass
class KfacState:
    """Per-layer Kronecker factors with their moving-average settings.

    ``a_*[l]`` has size ``(h_in + 1)`` (bias-augmented input side) and
    ``b_*[l]`` size ``h_out``.  ``ema`` is the moving-average weight on the
    previous factors, ``damping`` is added to every factor before
    inversion.
    """

    a_interior: list
    b_interior: list
    a_boundary: list
    b_boundary: list
    ema: float
    damping: float
    init_mode: str = "identity"


def init_kfac_state(params, ema: float, damping: float, init_mode: str = "identity") -> KfacState:
    """Fresh factors, either all-zero or identity, for every linear layer."""
    if init_mode not in ("zero", "identity"):
        raise ValueError(f"init_mode must be 'zero' or 'identity', got {init_mode!r}")

    def fresh(size):
        return np.zeros((size, size)) if init_mode == "zero" else np.eye(size)

    a_int, b_int, a_bnd, b_bnd = [], [], [], []
    for w in params.weights:
        a_int.append(fresh(w.shape[1] + 1))
        b_int.append(fresh(w.shape[0]))
        a_bnd.append(fresh(w.shape[1] + 1))
        b_bnd.append(fresh(w.shape[0]))
    return KfacState(a_int, b_int, a_bnd, b_bnd, ema, damping, init_mode)


def ema_update(old, new, beta: float) -> np.ndarray:
    """Moving average ``beta * old + (1 - beta) * new`` (no bias correction)."""
    old = np.asarray(old, dtype=np.float64)
    new = np.asarray(new, dtype=np.float64)
    if old.shape != new.shape:
        raise ValueError(f"factor shape mismatch: {old.shape} vs {new.shape}")
    return beta * old + (1.0 - beta) * new


def _augment_state(z):
    """Append the bias entry to an (N, S, h) state: 1 in the value column, 0 elsewhere."""
    n, s, _ = z.shape
    col = np.zeros((n, s, 1))
    col[:, 0, 0] = 1.0
    return np.concatenate([z, col], axis=2)


def layer_pairs(params, states: list, layer_grads: list) -> tuple:
    """Per linear layer: (input state, output adjoint) from the Taylor-mode passes."""
    layers = range(params.n_linear)
    return (
        [states[linear_input_index(l)] for l in layers],
        [layer_grads[linear_output_index(l)] for l in layers],
    )


def _input_layer_factor(x, s):
    """A factor of the input state ``initial_state(x)`` with S columns, in closed form."""
    n, d = x.shape
    xhat = network.augment_inputs(x)
    a = xhat.T @ xhat
    a[np.arange(d), np.arange(d)] += n
    return a / (n * s)


def interior_factor_update(state: KfacState, linear_inputs: list, output_grads: list) -> KfacState:
    """Accumulate interior factors from the operator-column intermediates.

    ``linear_inputs[l]`` is the (N, S, h_in) state entering linear layer l
    and ``output_grads[l]`` the (N, S, h_out) per-column gradients of the
    per-sample residual at its output.  The batch factors are

        A_l = sum_{n,s} zhat_{n,s} zhat_{n,s}^T / (N S)
        B_l = sum_{n,s} g_{n,s} g_{n,s}^T / N

    and enter the state through the moving average.  A two-dimensional
    input (N, d) holds the points x of the input state and is taken in
    closed form (module docstring).
    """
    for l, (z, g) in enumerate(zip(linear_inputs, output_grads)):
        n, s = g.shape[:2]
        if z.ndim == 2:
            if z.shape[0] != n or s != z.shape[1] + 2:
                raise ValueError(f"layer {l}: points do not match the gradient columns")
            a_new = _symmetrize(_input_layer_factor(z, s))
        else:
            if z.shape[:2] != g.shape[:2]:
                raise ValueError(f"layer {l}: input/gradient batch shapes do not match")
            zhat = _augment_state(z).reshape(n * s, z.shape[2] + 1)
            a_new = _symmetrize(zhat.T @ zhat / (n * s))
        gf = g.reshape(n * s, g.shape[2])
        b_new = _symmetrize(gf.T @ gf / n)
        state.a_interior[l] = ema_update(state.a_interior[l], a_new, state.ema)
        state.b_interior[l] = ema_update(state.b_interior[l], b_new, state.ema)
    return state


def boundary_factor_update(state: KfacState, linear_inputs: list, output_grads: list) -> KfacState:
    """Accumulate condition-term factors from a plain forward/backward pass.

    ``linear_inputs[l]`` is (N, h_in), ``output_grads[l]`` is (N, h_out);
    factors are the bias-augmented input covariance and the output-gradient
    covariance, both scaled by 1/N.
    """
    for l, (z, g) in enumerate(zip(linear_inputs, output_grads)):
        if z.shape[0] != g.shape[0]:
            raise ValueError(f"layer {l}: input/gradient batch sizes do not match")
        n = z.shape[0]
        zhat = network.augment_inputs(z)
        a_new = _symmetrize(zhat.T @ zhat / n)
        b_new = _symmetrize(g.T @ g / n)
        state.a_boundary[l] = ema_update(state.a_boundary[l], a_new, state.ema)
        state.b_boundary[l] = ema_update(state.b_boundary[l], b_new, state.ema)
    return state


def precondition_gradient(state: KfacState, grad_mats: list) -> list:
    """Solve the damped two-term Kronecker system per layer.

    Given per-layer gradient matrices ``[dW | db]`` returns the update
    directions ``-(A_int (x) B_int + A_cond (x) B_cond)^-1 g`` with
    ``damping * I`` added to each factor first.
    """
    lam = state.damping
    if lam <= 0:
        raise ValueError("damping must be positive for Kronecker preconditioning")
    out = []
    for l, g in enumerate(grad_mats):
        q, p = g.shape
        eye_a = np.eye(p)
        eye_b = np.eye(q)
        v = kron_sum_solve(
            state.a_interior[l] + lam * eye_a,
            state.b_interior[l] + lam * eye_b,
            state.a_boundary[l] + lam * eye_a,
            state.b_boundary[l] + lam * eye_b,
            g.flatten(order="F"),
        )
        out.append(-v.reshape((q, p), order="F"))
    return out


# ---------------------------------------------------------------------------
# exact Gramian and Gramian-vector products

def _input_layer_rows(x, g):
    """Layer-0 blocks ``[x_n; 1] g_n0^T + [G_n; 0]`` of shape (N, d + 1, h1)."""
    n, d = x.shape
    block = np.empty((n, d + 1, g.shape[2]))
    np.multiply(x[:, :, None], g[:, None, 0, :], out=block[:, :d, :])
    block[:, :d, :] += g[:, 1 : d + 1, :]
    block[:, d, :] = g[:, 0, :]
    return block


def _interior_jacobian_rows(params, states, layer_grads):
    """Stack per-sample interior residual Jacobians into an (N, D) matrix.

    Per layer the row segment is the column-stacked ``sum_s g_{n,s}
    zhat_{n,s}^T``; building its transpose directly makes the C-order
    reshape produce the column-stacked flattening.  Layer 0 is taken in
    closed form from the points (module docstring).
    """
    segs = []
    for z, g in zip(*layer_pairs(params, states, layer_grads)):
        if z.ndim == 2:
            block = _input_layer_rows(z, g)
        else:
            block = np.matmul(_augment_state(z).transpose(0, 2, 1), g)  # (N, h_in + 1, h_out)
        n, p, q = block.shape
        segs.append(block.reshape(n, p * q))
    return np.concatenate(segs, axis=1)


def _boundary_jacobian_rows(params, trace, grads):
    """Stack per-sample output Jacobians of the plain forward pass."""
    segs = []
    for z, g in zip(trace.linear_inputs, grads):
        zhat = network.augment_inputs(z)
        block = zhat[:, :, None] * g[:, None, :]  # (N, h_in + 1, h_out)
        n, p, q = block.shape
        segs.append(block.reshape(n, p * q))
    return np.concatenate(segs, axis=1)


def loss_gradient(params, states, layer_grads, r_int, trace, grads, r_bnd) -> list:
    """Per-layer ``[dW | db]`` gradient of the two-term loss.

    The residual-weighted contraction of the same per-sample pieces the
    Jacobian rows are built from, with term weights 1/N each:
    ``sum_n r_n / N * row_n`` for the interior and the condition term.
    """
    w_int = r_int / max(r_int.size, 1)
    w_bnd = r_bnd / max(r_bnd.size, 1)
    mats = network.weighted_param_grads(trace, grads, w_bnd)
    for l, (z, g) in enumerate(zip(*layer_pairs(params, states, layer_grads))):
        mats[l] += param_grad_matrix(z, g, w_int)
    return mats


def residual_jacobian_rows(params, batch: pde.Batch, problem) -> tuple:
    """Per-sample residual Jacobians (interior rows, condition rows).

    Interior rows chain the residual's output derivatives through the
    operator-column reverse pass; condition rows are plain output
    Jacobians.  Rows are unscaled; the 1/N weights are applied by the
    Gramian assembly.
    """
    n_int = batch.interior.shape[0]
    if n_int:
        states, out = taylor_forward(params, batch.interior, problem.coeffs)
        du, dgrad, dop = problem.residual_grads(
            batch.interior, out.value, out.gradient, out.operator
        )
        seeds = np.concatenate([du[:, None], dgrad, dop[:, None]], axis=1)
        tg = taylor_backward(params, states, seeds, problem.coeffs)
        rows_int = _interior_jacobian_rows(params, states, tg.layer_grads)
    else:
        rows_int = np.zeros((0, params.n_params))

    n_bnd = batch.boundary.shape[0]
    if n_bnd:
        _, trace = network.forward_batch(params, batch.boundary)
        grads = network.backward_batch(params, trace, np.ones(n_bnd))
        rows_bnd = _boundary_jacobian_rows(params, trace, grads)
    else:
        rows_bnd = np.zeros((0, params.n_params))
    return rows_int, rows_bnd


def exact_gramian(params, batch: pde.Batch, problem, cap: int = DENSE_GRAMIAN_CAP) -> np.ndarray:
    """Dense Gauss-Newton matrix ``J_int^T J_int / N + J_cond^T J_cond / N_cond``."""
    d_total = params.n_params
    if d_total > cap:
        raise ValueError(f"parameter count {d_total} exceeds dense cap {cap}")
    rows_int, rows_bnd = residual_jacobian_rows(params, batch, problem)
    g = np.zeros((d_total, d_total))
    if rows_int.shape[0]:
        g += rows_int.T @ rows_int / rows_int.shape[0]
    if rows_bnd.shape[0]:
        g += rows_bnd.T @ rows_bnd / rows_bnd.shape[0]
    return _symmetrize(g)


def gramian_vec(params, batch: pde.Batch, problem, v) -> np.ndarray:
    """Gramian-vector product without materializing the Gramian.

    Damping is not included; callers add ``lam * v`` themselves.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (params.n_params,):
        raise ValueError(f"vector must have length {params.n_params}, got shape {v.shape}")
    rows_int, rows_bnd = residual_jacobian_rows(params, batch, problem)
    return gramian_vec_from_rows(rows_int, rows_bnd, v)


def gramian_vec_from_rows(rows_int, rows_bnd, v) -> np.ndarray:
    """Gramian-vector product when the Jacobian rows are already available."""
    out = np.zeros_like(np.asarray(v, dtype=np.float64))
    if rows_int.shape[0]:
        out += rows_int.T @ (rows_int @ v) / rows_int.shape[0]
    if rows_bnd.shape[0]:
        out += rows_bnd.T @ (rows_bnd @ v) / rows_bnd.shape[0]
    return out
