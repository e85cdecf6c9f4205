"""Kronecker-factored and exact curvature of the two-term training loss.

Both loss terms are read from one record per step: per linear layer the
pair (input z, output gradient g) with S shared columns per sample.  The
interior record comes from the operator-column passes of
:mod:`pinnopt.taylor` (S = d + 2, :func:`layer_pairs`), the condition
record from the plain forward/backward pass seen as S = 1
(:func:`boundary_pairs`).  One body per quantity serves both terms:

    A_l   = sum_{n,s} zhat_ns zhat_ns^T / (N S)
    B_l   = sum_{n,s} g_ns g_ns^T / N
    row_n = sum_s g_ns zhat_ns^T                  (column-stacked)
    grad  = sum_n r_n / N * row_n                 (taylor.param_grad_matrix)

A layer's curvature block is approximated by ``A_int (x) B_int + A_cond
(x) B_cond`` in the column-stacked ``[W | b]`` flattening, which the
damped Kronecker-sum solver inverts without materializing the block.

The bias is implicit: ``zhat_ns`` is z_ns followed by 1 in the value column
(s = 0) and 0 elsewhere, and no augmented copy is formed.  The bias row
and column of A are the value-column sum ``sum_n z_n0`` with N in the
corner, and the bias row of a Jacobian row block is ``g_n0``.

The first linear layer's interior input state is never materialised (see
:mod:`pinnopt.taylor`): the interior record holds only the points x, as a
two-dimensional (N, d) input whose columns stand for x_n (value), e_i
(derivatives) and 0 (operator).  Layer 0's interior terms are therefore
taken in closed form:

    A_int  = ([x 1]^T [x 1] + N diag(1_d, 0)) / (N S)
    row_n  = [x_n; 1] g_n0^T + [G_n; 0]      (G_n: derivative block of g_n)

The condition record's layer-0 input is ``x[:, None, :]``, three-dimensional
like every other S = 1 input, so a two-dimensional input always means
these points.  Only this module and :mod:`pinnopt.taylor` know the state
layout; the optimizers pass the records through unchanged.

kfac_star needs the Gramian only on the span of k <= 2 directions
V = [Delta, prev], so it asks for the projected rows ``J V`` (N, k)
instead of the (N, D) rows.  With ``[dW_k | db_k]`` the layer's block of
direction k, each layer adds

    (J V)_nk += sum_s g_ns . (dW_k z_ns) + g_n0 . db_k
    (J V)_nk += g_n0 . (dW_k x_n + db_k) + <G_n, dW_k^T>      (layer 0)

the first as one (N S, h_in) x (h_in, h_out) product per direction, the
second with G_n read as one (N, d h1) matrix.  ``V^T G V`` is then the
Gramian-vector product of the (N, k) rows with the coordinate vectors.
Only engd forms the (N, D) rows.

The interior term's per-sample work runs over the two fixed halves of
the batch of :meth:`pinnopt.taylor.Workspace.split`, on the calling
thread and the one thread of a training state's executor (a half the
worker has not started when the caller is done runs on the caller
instead): each half writes its rows
of ``J V``, and every batch sum (the factors' ``sum zhat zhat^T`` and
``sum g g^T``, the gradient) is the half-0 sum plus the half-1 sum, in
that order.  The results therefore do not depend on which thread took
which half or on the number of cores; they differ from one sum over the
whole batch by rounding only.  The condition term (about a hundred
points) and :func:`precondition_gradient` stay on the caller: the
solver's ``kron_sum_solve`` and ``sym_eig`` are traced functions, and the
benchmark's tracer records spans of the calling thread only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network, pde
from .linalg import kron_sum_solve
from .taylor import (
    Workspace,
    linear_input_index,
    param_grad_matrix,
    taylor_backward,
    taylor_forward,
)

__all__ = [
    "KfacState",
    "init_kfac_state",
    "ema_update",
    "layer_pairs",
    "boundary_pairs",
    "interior_factor_update",
    "boundary_factor_update",
    "precondition_gradient",
    "gramian_from_rows",
    "residual_jacobian_rows",
    "loss_gradient",
]

DENSE_GRAMIAN_CAP = 20_000


def _symmetrize(m):
    return 0.5 * (m + m.T)


@dataclass
class KfacState:
    """Per-layer Kronecker factors with their moving-average settings.

    ``a_*[l]`` has size ``(h_in + 1)`` (input side; its last row and column
    belong to the bias) and ``b_*[l]`` size ``h_out``.  The interior
    factors average over the S = d + 2 columns of each sample, the
    boundary factors are the same formulas with S = 1 (module docstring).
    ``ema`` is the moving-average weight on the previous factors,
    ``damping`` is added to every factor before inversion.
    """

    a_interior: list
    b_interior: list
    a_boundary: list
    b_boundary: list
    ema: float
    damping: float


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
    return KfacState(a_int, b_int, a_bnd, b_bnd, ema, damping)


def ema_update(old, new, beta: float) -> np.ndarray:
    """Moving average ``beta * old + (1 - beta) * new`` (no bias correction)."""
    old = np.asarray(old, dtype=np.float64)
    new = np.asarray(new, dtype=np.float64)
    if old.shape != new.shape:
        raise ValueError(f"factor shape mismatch: {old.shape} vs {new.shape}")
    return beta * old + (1.0 - beta) * new


def layer_pairs(params, states: list, adjoints: list) -> list:
    """The interior record: (input state, output adjoint) per linear layer.

    Taken from the Taylor-mode forward states and the reverse pass's
    per-layer adjoints; layer 0's input is the (N, d) array of points
    (module docstring).
    """
    return [(states[linear_input_index(l)], adjoints[l]) for l in range(params.n_linear)]


def boundary_pairs(trace, grads: list) -> list:
    """The condition record: (N, 1, h) views of a plain forward/backward pass (S = 1)."""
    return [(z[:, None, :], g[:, None, :]) for z, g in zip(trace.linear_inputs, grads)]


def _rows(record, rows: slice) -> list:
    """The samples ``rows`` of a record."""
    return [(z[rows], g[rows]) for z, g in record]


def _input_gram(z):
    """``sum_{n,s} zhat_ns zhat_ns^T`` with the bias entry implicit.

    A two-dimensional ``z`` holds the points of the input state, whose
    derivative columns add N to the diagonal of the weight block.
    """
    n, h = z.shape[0], z.shape[-1]
    if z.ndim == 2:
        value = z
        gram = z.T @ z
        gram[np.arange(h), np.arange(h)] += n
    else:
        value = z[:, 0, :]
        flat = z.reshape(-1, h)
        gram = flat.T @ flat
    a = np.empty((h + 1, h + 1))
    a[:h, :h] = gram
    a[:h, h] = a[h, :h] = value.sum(axis=0)
    a[h, h] = n
    return a


def _factor_sums(record) -> list:
    """Per layer the batch sums ``(sum zhat zhat^T, sum g g^T)`` of a record."""
    sums = []
    for l, (z, g) in enumerate(record):
        n, s, q = g.shape
        columns = z.shape[1] + 2 if z.ndim == 2 else z.shape[1]
        if z.shape[0] != n or columns != s:
            raise ValueError(f"layer {l}: input {z.shape} does not match gradient {g.shape}")
        gf = g.reshape(n * s, q)
        sums.append((_input_gram(z), gf.T @ gf))
    return sums


def _factor_update(record, sums: list, a_factors: list, b_factors: list, ema: float) -> None:
    """Moving-average update of one loss term's factors from its record's batch sums.

    ``record[l] = (z, g)`` with g the (N, S, h_out) output gradients and
    ``sums`` their :func:`_factor_sums`; the batch factors ``A_l`` and
    ``B_l`` of the module docstring enter ``a_factors[l]`` and
    ``b_factors[l]`` through the moving average.
    """
    for l, ((_, g), (a, b)) in enumerate(zip(record, sums)):
        n, s, _ = g.shape
        a_factors[l] = ema_update(a_factors[l], _symmetrize(a / (n * s)), ema)
        b_factors[l] = ema_update(b_factors[l], _symmetrize(b / n), ema)


def interior_factor_update(state: KfacState, interior: list, workspace=None) -> KfacState:
    """Accumulate the interior factors from the interior record (:func:`layer_pairs`).

    The batch sums run over the two halves of :meth:`Workspace.split`
    (None means a fresh workspace) and are added as half 0 + half 1.
    """
    if workspace is None:
        workspace = Workspace()
    n = interior[0][1].shape[0]
    first, second = workspace.split(n, lambda half: _factor_sums(_rows(interior, half.rows)))
    sums = [(a0 + a1, b0 + b1) for (a0, b0), (a1, b1) in zip(first, second)]
    _factor_update(interior, sums, state.a_interior, state.b_interior, state.ema)
    return state


def boundary_factor_update(state: KfacState, boundary: list) -> KfacState:
    """Accumulate the condition-term factors from the condition record (:func:`boundary_pairs`)."""
    _factor_update(boundary, _factor_sums(boundary), state.a_boundary, state.b_boundary, state.ema)
    return state


def precondition_gradient(state: KfacState, grad) -> np.ndarray:
    """Solve the damped two-term Kronecker system per layer.

    Given the parameter-space gradient vector ``g`` returns the direction
    ``-(A_int (x) B_int + A_cond (x) B_cond)^-1 g``, layer by layer, with
    ``damping * I`` added to each factor first.  Each layer's segment of
    ``g`` is already the column-stacked vector the solver takes.
    """
    lam = state.damping
    if lam <= 0:
        raise ValueError("damping must be positive for Kronecker preconditioning")
    shapes = [(a.shape[0], b.shape[0]) for a, b in zip(state.a_interior, state.b_interior)]
    out = np.empty_like(grad)
    for l, (g, o) in enumerate(zip(network.layer_blocks(grad, shapes), network.layer_blocks(out, shapes))):
        eye_a, eye_b = np.eye(o.shape[0]), np.eye(o.shape[1])
        v = kron_sum_solve(
            state.a_interior[l] + lam * eye_a,
            state.b_interior[l] + lam * eye_b,
            state.a_boundary[l] + lam * eye_a,
            state.b_boundary[l] + lam * eye_b,
            g.reshape(-1),
        )
        o[...] = -v.reshape(o.shape)
    return out


# ---------------------------------------------------------------------------
# exact Gramian and Gramian-vector products

def _input_layer_rows(x, g, out):
    """Write the weight rows ``x_n g_n0^T + G_n`` of the layer-0 blocks into ``out`` (N, d, h1).

    One input coordinate at a time: a single strided add over all d
    coordinates makes numpy copy the (N, d, h1) operand first.
    """
    for i in range(x.shape[1]):
        np.multiply(x[:, i, None], g[:, 0, :], out=out[:, i, :])
        out[:, i, :] += g[:, 1 + i, :]


def _jacobian_rows(record):
    """Stack one loss term's per-sample residual Jacobians into an (N, D) matrix.

    Per layer the row segment is the column-stacked ``sum_s g_ns zhat_ns^T``,
    written in place through its per-sample ``[W | b]^T`` blocks
    (:func:`pinnopt.network.layer_blocks`).  The weight rows are
    ``z_n^T g_n`` (layer-0 points in closed form), the bias row is ``g_n0``.
    """
    shapes = [(z.shape[-1] + 1, g.shape[2]) for z, g in record]
    rows = np.empty((record[0][1].shape[0], sum(p * q for p, q in shapes)))
    for view, (z, g) in zip(network.layer_blocks(rows, shapes), record):
        h = z.shape[-1]
        if z.ndim == 2:
            _input_layer_rows(z, g, view[:, :h, :])
        else:
            np.matmul(z.transpose(0, 2, 1), g, out=view[:, :h, :])
        view[:, h, :] = g[:, 0, :]
    return rows


def _projected_rows(record, basis, workspace):
    """One loss term's residual Jacobian applied to k directions, ``J V`` (N, k).

    ``basis[k]`` is a parameter-space vector.  Per layer
    ``(J V)_nk += sum_s g_ns . (dW_k z_ns) + g_n0 . db_k`` (module
    docstring), one (N S, h_in) x (h_in, h_out) product per direction into
    the workspace's scratch array; no row is formed.
    """
    n = record[0][1].shape[0]
    blocks = network.layer_blocks(np.asarray(basis), [(z.shape[-1] + 1, g.shape[2]) for z, g in record])
    out = np.zeros((n, len(basis)))
    for l, (z, g) in enumerate(record):
        _, s, q = g.shape
        h = z.shape[-1]
        for k, block in enumerate(blocks[l]):
            w_t, b = block[:h], block[h]
            if z.ndim == 2:
                # derivative block G_n read as one (N, d h1) matrix (a view)
                out[:, k] += g[:, 1 : 1 + h, :].reshape(n, h * q) @ w_t.reshape(-1)
                out[:, k] += np.einsum("ij,ij->i", z @ w_t + b, g[:, 0, :])
            else:
                zw = workspace.array((n * s, q), "scratch")
                np.matmul(z.reshape(n * s, h), w_t, out=zw)
                out[:, k] += np.einsum("ij,ij->i", zw, g.reshape(n * s, q)).reshape(n, s).sum(axis=1)
                out[:, k] += g[:, 0, :] @ b
    return out


# one entry per loss term, so that perfbench/tracing.py can time each by name
def _interior_jacobian_rows(interior, basis=None, workspace=None):
    """Interior residual Jacobian rows (N, D) from the interior record, or ``J V`` for a
    basis, which needs a workspace; ``J V`` is stacked from its rows over the two
    halves of :meth:`Workspace.split`."""
    if basis is None:
        return _jacobian_rows(interior)

    def half_rows(half):
        return _projected_rows(_rows(interior, half.rows), basis, half)

    return np.concatenate(workspace.split(interior[0][1].shape[0], half_rows))


def _boundary_jacobian_rows(boundary, basis=None, workspace=None):
    """Condition residual Jacobian rows (N, D) from the condition record, or ``J V`` for a
    basis, which needs a workspace."""
    return _jacobian_rows(boundary) if basis is None else _projected_rows(boundary, basis, workspace)


def loss_gradient(interior: list, r_int, boundary: list, r_bnd, workspace=None) -> np.ndarray:
    """Parameter-space gradient vector of the two-term loss.

    The residual-weighted contraction of the records the Jacobian rows are
    built from, with term weights 1/N each: ``sum_n r_n / N * row_n`` for
    the interior and the condition term.  The interior sum runs over the
    two halves of :meth:`Workspace.split` (None means a fresh workspace);
    each layer's gradient is (half 0 + half 1) + condition term.
    """
    if workspace is None:
        workspace = Workspace()
    w_int = r_int / max(r_int.size, 1)
    w_bnd = r_bnd / max(r_bnd.size, 1)

    def interior_rows(half):
        weights = w_int[half.rows]
        return [param_grad_matrix(z, g, half, weights) for z, g in _rows(interior, half.rows)]

    first, second = workspace.split(r_int.size, interior_rows)
    return np.concatenate([
        (m0 + m1 + param_grad_matrix(zb, gb, workspace, w_bnd)).ravel(order="F")
        for m0, m1, (zb, gb) in zip(first, second, boundary)
    ])


def residual_jacobian_rows(params, batch: pde.Batch, problem) -> tuple:
    """Per-sample residual Jacobians (interior rows, condition rows).

    Interior rows chain the residual's output derivatives through the
    operator-column reverse pass; condition rows are plain output
    Jacobians.  Rows are unscaled; the 1/N weights are applied by the
    Gramian assembly.
    """
    states, out = taylor_forward(params, batch.interior, problem.coeffs)
    du, dgrad, dop = problem.residual_grads(batch.interior, out.value, out.gradient, out.operator)
    seeds = np.concatenate([du[:, None], dgrad, dop[:, None]], axis=1)
    adjoints = taylor_backward(params, states, seeds, problem.coeffs)
    _, trace = network.forward_batch(params, batch.boundary)
    grads = network.backward_batch(params, trace, np.ones(batch.boundary.shape[0]))
    return (
        _interior_jacobian_rows(layer_pairs(params, states, adjoints)),
        _boundary_jacobian_rows(boundary_pairs(trace, grads)),
    )


def gramian_from_rows(rows_int, rows_bnd) -> np.ndarray:
    """Dense Gauss-Newton matrix ``J_int^T J_int / N + J_cond^T J_cond / N_cond`` from the rows."""
    d_total = rows_int.shape[1]
    g = np.zeros((d_total, d_total))
    if rows_int.shape[0]:
        g += rows_int.T @ rows_int / rows_int.shape[0]
    if rows_bnd.shape[0]:
        g += rows_bnd.T @ rows_bnd / rows_bnd.shape[0]
    return _symmetrize(g)


def gramian_vec_from_rows(rows_int, rows_bnd, v) -> np.ndarray:
    """Gramian-vector product when the Jacobian rows are already available."""
    out = np.zeros_like(np.asarray(v, dtype=np.float64))
    if rows_int.shape[0]:
        out += rows_int.T @ (rows_int @ v) / rows_int.shape[0]
    if rows_bnd.shape[0]:
        out += rows_bnd.T @ (rows_bnd @ v) / rows_bnd.shape[0]
    return out
