"""Kronecker-factored and exact curvature of the two-term training loss.

Both loss terms are read from one record per step: per linear layer the
pair (input z, output gradient g) with S shared columns per sample.  The
interior record comes from the operator-column passes of
:mod:`pinnopt.taylor` (S = d + 2, :func:`layer_pairs`), the condition
record from the plain forward/backward pass seen as S = 1
(:func:`boundary_pairs`).  One body per quantity serves both terms:

    A_l   = sum_{n,s} zhat_ns zhat_ns^T / (N S)
    B_l   = sum_{n,s} g_ns g_ns^T / N
    row_n = sum_s zhat_ns g_ns^T
    grad  = sum_n r_n / N * row_n                 (:func:`param_grad_matrix`)

where row_n and grad are (h_in + 1, h_out) blocks ``[W | b]^T`` of
:func:`pinnopt.network.layer_blocks`, the layout of every parameter-space
vector.  A layer's curvature block is approximated by ``A_int (x) B_int +
A_cond (x) B_cond``, which maps a block X to ``A_int X B_int + A_cond X
B_cond``; the damped Kronecker-sum solver solves that matrix equation
without materializing the block.

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

Layer 1's interior input, the first activation's state, has the
derivative columns ``s1 * W0^T`` for every sample (s1 = 1 - s0^2 from its
value column s0), so the weight block of its A sum needs (N, h1) products
only, of the value columns S0, the operator columns O and S1:

    sum zhat zhat^T  =  S0^T S0 + O^T O + (S1^T S1) o (W0 W0^T)   (o: elementwise)

which is why :func:`interior_factor_update` takes the parameters.  The
condition record and layers 2 and up sum all their columns directly.

A net with one hidden layer has these two entries in factored form (see
:mod:`pinnopt.taylor`): layer 1's input is a
:class:`~pinnopt.taylor.FactoredState` (S0, S1, O = S2 q, W0) and layer
0's output gradient a :class:`~pinnopt.taylor.FactoredAdjoint` (V, A, B,
the seeds (u_bar, P, l_bar), M = C W0^T).  Every quantity is then a
product of (N, h1) and (N, d) arrays, O(N h1 (h1 + d)) in place of the
O(N S h1^2) of the full columns.  With V, A, B stacking v_n, a_n, beta_n
as rows, K = (P M) o B and weights w (N,):

    sum g g^T (layer 0)  =  V^T V + A^T diag(|p_n|^2 + l_n^2) A + A^T K + K^T A
                            + (M^T M) o (B^T B)
    row_n (layer 0)      =  [x_n; 1] v_n^T + [p_n a_n^T + M diag(beta_n); 0]
    sum w_n row_n        =  [x^T (w o V) + P^T (w o A) + M o (w^T B); w^T V]
    row_n (layer 1)      =  [u_n s0_n + s1_n o (W0 p_n) + l_n O_n; u_n]

and a direction's layer-0 block [dW^T; db] adds
``(x_n^T dW^T + db) . v_n + p_n^T dW^T a_n + beta_n . colsum(M o dW^T)``
to ``J V``.  Layer 1's rows are formed, (N, h1 + 1), and contracted like
any rows.

The condition record's layer-0 input is ``x[:, None, :]``, three-dimensional
like every other S = 1 input, so a two-dimensional input always means
these points.  This module alone reads a record: the implicit bias row,
layer 0 as the points and the factored entries are its rules.
:mod:`pinnopt.taylor` writes the states and adjoints, and the optimizers
pass the records through unchanged.

kfac_star needs the Gramian only on the span of k <= 2 directions
V = [Delta, prev], so it asks for the projected rows ``J V`` (N, k)
instead of the (N, D) rows.  With ``[dW_k | db_k]^T`` the layer's block of
direction k, each layer adds

    (J V)_nk += sum_s g_ns . (dW_k z_ns) + g_n0 . db_k
    (J V)_nk += g_n0 . (dW_k x_n + db_k) + <G_n, dW_k^T>      (layer 0)

the first as one (N S, h_in) x (h_in, h_out) product per direction, the
second with G_n read as one (N, d h1) matrix.  :func:`projected_gramian`
returns ``V^T G V``, the Gramian-vector products of the (N, k) rows with
the coordinate vectors as columns.  Only engd forms the (N, D) rows, in
:func:`dense_gramian`.  These two are the optimizers' only way to the
Gauss-Newton matrix.

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
    FactoredAdjoint,
    FactoredState,
    Workspace,
    linear_input_index,
    taylor_backward,
    taylor_forward,
)

__all__ = [
    "KfacState",
    "init_kfac_state",
    "initial_curvature",
    "ema_update",
    "layer_pairs",
    "boundary_pairs",
    "interior_factor_update",
    "boundary_factor_update",
    "precondition_gradient",
    "param_grad_matrix",
    "dense_gramian",
    "projected_gramian",
    "residual_jacobian_rows",
    "loss_gradient",
]

DENSE_GRAMIAN_CAP = 20_000


def _symmetrize(m):
    return 0.5 * (m + m.T)


@dataclass
class KfacState:
    """Per-layer Kronecker factors of the two loss terms.

    ``a_*[l]`` has size ``(h_in + 1)`` (input side; its last row and column
    belong to the bias) and ``b_*[l]`` size ``h_out``.  The interior
    factors average over the S = d + 2 columns of each sample, the
    boundary factors are the same formulas with S = 1 (module docstring).
    The moving-average weight and the damping are the run's settings, passed
    to the updates and the solve (:class:`pinnopt.optim.OptimizerConfig`).
    """

    a_interior: list
    b_interior: list
    a_boundary: list
    b_boundary: list


def initial_curvature(size: int, init_mode: str) -> np.ndarray:
    """A fresh (size, size) curvature matrix: all-zero for ``"zero"``, identity for ``"identity"``."""
    if init_mode not in ("zero", "identity"):
        raise ValueError(f"init_mode must be 'zero' or 'identity', got {init_mode!r}")
    return np.zeros((size, size)) if init_mode == "zero" else np.eye(size)


def init_kfac_state(params, init_mode: str) -> KfacState:
    """Fresh factors, :func:`initial_curvature` of ``init_mode``, for every linear layer."""
    return KfacState(*([initial_curvature(shape[i], init_mode) for shape in params.shapes] for i in (0, 1, 0, 1)))


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
    per-layer adjoints; layer 0's input is the (N, d) array of points, and
    a one-hidden-layer net's layer-1 input is the factored state that its
    reverse pass formed with layer 0's adjoint (module docstring).
    """
    if isinstance(adjoints[0], FactoredAdjoint):
        return [(states[0], adjoints[0]), (adjoints[0].state, adjoints[1])]
    return [(states[linear_input_index(l)], adjoints[l]) for l in range(params.n_linear)]


def boundary_pairs(inputs: list, grads: list) -> list:
    """The condition record (S = 1): (N, 1, h) views of the layer inputs of
    :func:`network.forward_batch` and the gradients :func:`network.backward_batch`."""
    return [(z[:, None, :], g[:, None, :]) for z, g in zip(inputs, grads)]


def _rows(record, rows: slice) -> list:
    """The samples ``rows`` of a record."""
    return [(z[rows], g[rows]) for z, g in record]


def _input_gram(z, w0=None):
    """``sum_{n,s} zhat_ns zhat_ns^T`` with the bias entry implicit.

    A two-dimensional ``z`` holds the points of the input state, whose
    derivative columns add N to the diagonal of the weight block.  A
    :class:`FactoredState`, or with ``w0`` given an (N, S, h1) ``z``, is
    the interior state after the first activation, whose derivative
    columns ``s1 * W0^T`` add ``(S1^T S1) * (W0 W0^T)``.
    """
    n, h = z.shape[0], z.shape[-1]
    if w0 is not None and not isinstance(z, FactoredState):
        value = z[:, 0, :]
        z = FactoredState(value, 1.0 - value * value, z[:, -1, :], w0)  # tanh' as tanh_derivs has it
    if isinstance(z, FactoredState):
        value = z.value
        gram = value.T @ value + z.operator.T @ z.operator + (z.slope.T @ z.slope) * (z.w0 @ z.w0.T)
    elif z.ndim == 2:
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


def _output_gram(g) -> np.ndarray:
    """``sum_{n,s} g_ns g_ns^T``; for a :class:`FactoredAdjoint` (module docstring)

        V^T V + A^T diag(|p_n|^2 + l_n^2) A + A^T K + K^T A + (M^T M) o (B^T B),
        K = (P M) o B
    """
    if isinstance(g, FactoredAdjoint):
        p, l_bar = g.grad, g.seeds[:, -1]
        a, beta = g.slope, g.curvature
        ak = a.T @ ((p @ g.m) * beta)
        norms = np.einsum("ni,ni->n", p, p) + l_bar * l_bar
        return g.value.T @ g.value + a.T @ (norms[:, None] * a) + ak + ak.T + (g.m.T @ g.m) * (beta.T @ beta)
    n, s, q = g.shape
    gf = g.reshape(n * s, q)
    return gf.T @ gf


def _factor_sums(record, w0=None) -> list:
    """Per layer the batch sums ``(sum zhat zhat^T, sum g g^T)`` of a record.

    ``w0`` (the interior record's) gives layer 1's input sum in closed form.
    """
    sums = []
    for l, (z, g) in enumerate(record):
        n, s, _ = g.shape
        columns = z.shape[1] + 2 if z.ndim == 2 else z.shape[1]
        if z.shape[0] != n or columns != s:
            raise ValueError(f"layer {l}: input {z.shape} does not match gradient {g.shape}")
        sums.append((_input_gram(z, w0 if l == 1 else None), _output_gram(g)))
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


def interior_factor_update(state: KfacState, params, interior: list, ema: float, workspace=None) -> KfacState:
    """Accumulate the interior factors from the interior record (:func:`layer_pairs`) of ``params``.

    ``ema`` is the moving-average weight on the previous factors.  The
    batch sums run over the two halves of :meth:`Workspace.split` (None
    means a fresh workspace) and are added as half 0 + half 1.
    """
    if workspace is None:
        workspace = Workspace()
    n = interior[0][1].shape[0]
    w0 = params.weights[0]
    first, second = workspace.split(n, lambda half: _factor_sums(_rows(interior, half.rows), w0))
    sums = [(a0 + a1, b0 + b1) for (a0, b0), (a1, b1) in zip(first, second)]
    _factor_update(interior, sums, state.a_interior, state.b_interior, ema)
    return state


def boundary_factor_update(state: KfacState, boundary: list, ema: float) -> KfacState:
    """Accumulate the condition-term factors from the condition record (:func:`boundary_pairs`) at weight ``ema``."""
    _factor_update(boundary, _factor_sums(boundary), state.a_boundary, state.b_boundary, ema)
    return state


def precondition_gradient(state: KfacState, grad, damping: float) -> np.ndarray:
    """Solve the damped two-term Kronecker system per layer.

    Given the parameter-space gradient vector ``g`` returns the direction
    ``-(A_int (x) B_int + A_cond (x) B_cond)^-1 g``, layer by layer, with
    ``damping * I`` added to each factor first: each layer's block X of the
    direction solves ``A_int X B_int + A_cond X B_cond = -G`` for its
    gradient block G (:func:`pinnopt.linalg.kron_sum_solve`).
    """
    if damping <= 0:
        raise ValueError("damping must be positive for Kronecker preconditioning")
    shapes = [(a.shape[0], b.shape[0]) for a, b in zip(state.a_interior, state.b_interior)]
    out = np.empty_like(grad)
    for l, (g, o) in enumerate(zip(network.layer_blocks(grad, shapes), network.layer_blocks(out, shapes))):
        eye_a, eye_b = np.eye(o.shape[0]), np.eye(o.shape[1])
        o[...] = -kron_sum_solve(
            state.a_interior[l] + damping * eye_a,
            state.b_interior[l] + damping * eye_b,
            state.a_boundary[l] + damping * eye_a,
            state.b_boundary[l] + damping * eye_b,
            g,
        )
    return out


# ---------------------------------------------------------------------------
# exact Gramian and Gramian-vector products

def _value_column(g) -> np.ndarray:
    """The (N, h) value column ``g_n0`` of an output gradient."""
    return g.value if isinstance(g, FactoredAdjoint) else g[:, 0, :]


def _hidden_rows(z: FactoredState, g) -> np.ndarray:
    """The (N, h1 + 1) blocks ``sum_s zhat_ns g_ns`` of layer 1 of a one-hidden-layer net.

    Its output gradient g is the width-1 seed ``(u_bar, p, l_bar)``, so
    the weight rows are ``u_bar s0 + s1 * (W0 p) + l_bar s2 q`` and the
    bias entry is u_bar.
    """
    n, h = z.value.shape
    d = z.w0.shape[1]
    rows = np.empty((n, h + 1))
    rows[:, :h] = (g[:, 1 : d + 1, 0] @ z.w0.T) * z.slope + g[:, 0, :] * z.value + g[:, d + 1, :] * z.operator
    rows[:, h] = g[:, 0, 0]
    return rows


def _input_layer_rows(x, g, out):
    """Write the weight rows ``x_n g_n0^T + G_n`` of the layer-0 blocks into ``out`` (N, d, h1).

    One input coordinate at a time: a single strided add over all d
    coordinates makes numpy copy the (N, d, h1) operand first.  A
    :class:`FactoredAdjoint` gives row i of G_n as ``p_ni a_n + beta_n * M[i]``.
    """
    factored = isinstance(g, FactoredAdjoint)
    for i in range(x.shape[1]):
        np.multiply(x[:, i, None], _value_column(g), out=out[:, i, :])
        if factored:
            out[:, i, :] += g.grad[:, i, None] * g.slope
            out[:, i, :] += g.curvature * g.m[i]
        else:
            out[:, i, :] += g[:, 1 + i, :]


def _block_shapes(record) -> list:
    """The (h_in + 1, h_out) parameter block shape of each layer of a record."""
    return [(z.shape[-1] + 1, g.shape[2]) for z, g in record]


def _jacobian_rows(record):
    """Stack one loss term's per-sample residual Jacobians into an (N, D) matrix.

    Per layer the row segment is the block ``sum_s zhat_ns g_ns^T``, written
    in place through its per-sample views (:func:`pinnopt.network.layer_blocks`).
    The weight rows are ``z_n^T g_n`` (layer-0 points in closed form), the
    bias row is ``g_n0``.
    """
    shapes = _block_shapes(record)
    rows = np.empty((record[0][1].shape[0], sum(p * q for p, q in shapes)))
    for view, (z, g) in zip(network.layer_blocks(rows, shapes), record):
        h = z.shape[-1]
        if isinstance(z, FactoredState):
            view[:, :, 0] = _hidden_rows(z, g)
            continue
        if z.ndim == 2:
            _input_layer_rows(z, g, view[:, :h, :])
        else:
            np.matmul(z.transpose(0, 2, 1), g, out=view[:, :h, :])
        view[:, h, :] = _value_column(g)
    return rows


def _projected_rows(record, basis, workspace):
    """One loss term's residual Jacobian applied to k directions, ``J V`` (N, k).

    ``basis[k]`` is a parameter-space vector.  Per layer
    ``(J V)_nk += sum_s g_ns . (dW_k z_ns) + g_n0 . db_k`` (module
    docstring), one (N S, h_in) x (h_in, h_out) product per direction into
    the workspace's scratch array; no row is formed, except the (N, h1 + 1)
    rows of a factored layer 1.
    """
    n = record[0][1].shape[0]
    blocks = network.layer_blocks(np.asarray(basis), _block_shapes(record))
    out = np.zeros((n, len(basis)))
    for l, (z, g) in enumerate(record):
        _, s, q = g.shape
        h = z.shape[-1]
        if isinstance(z, FactoredState):
            out += _hidden_rows(z, g) @ blocks[l][:, :, 0].T
            continue
        for k, block in enumerate(blocks[l]):
            w_t, b = block[:h], block[h]
            if isinstance(g, FactoredAdjoint):
                # (x_n^T dW^T + db) . v_n + p_n^T dW^T a_n + beta_n . colsum(M o dW^T)
                out[:, k] += np.einsum("ij,ij->i", z @ w_t + b, g.value)
                out[:, k] += np.einsum("ij,ij->i", g.grad @ w_t, g.slope)
                out[:, k] += g.curvature @ np.sum(g.m * w_t, axis=0)
            elif z.ndim == 2:
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


def param_grad_matrix(z_in, g, workspace: Workspace, weights=None) -> np.ndarray:
    """Batch-summed ``[dW | db]^T`` block of one linear layer, ``sum_n w_n sum_s zhat_ns g_ns^T``.

    ``z_in`` is the layer's input and ``g`` the (N, S, h_out) gradient of its
    output, one layer's entry of a record; ``zhat`` appends the bias entry
    (1 in the value column, 0 elsewhere).  A two-dimensional ``z_in`` holds
    the points x and stands for the input state (x, e_i, 0), whose column
    sum per sample is ``[x_n; 1] g_n0^T + [G_n; 0]`` with ``G_n`` the
    derivative-column block of ``g_n``.  ``weights`` (N,) scale the
    samples; None means all ones.  The scaled gradient columns that are
    read go to the workspace's scratch array: for points, the operator
    column is never read.  The result is the layer's (h_in + 1, h_out)
    block of :func:`pinnopt.network.layer_blocks`.
    """
    if isinstance(z_in, FactoredState):
        rows = _hidden_rows(z_in, g)
        return (rows.sum(axis=0) if weights is None else weights @ rows)[:, None]
    n, s, q = g.shape
    if isinstance(g, FactoredAdjoint):
        # x^T (w o V) + P^T (w o A) + M o (w^T B), with w all ones when None
        d = z_in.shape[1]
        omega = np.ones(n) if weights is None else weights
        g0 = g.value * omega[:, None]
        m = np.empty((d + 1, q))
        m[:d] = z_in.T @ g0 + g.grad.T @ (g.slope * omega[:, None]) + g.m * (omega @ g.curvature)
    elif z_in.ndim == 2:
        d = z_in.shape[1]
        g0, gd = g[:, 0, :], g[:, 1 : d + 1, :]
        if weights is not None:
            g0 = g0 * weights[:, None]
            gd = np.multiply(gd, weights[:, None, None], out=workspace.array(gd.shape, "scratch"))
        m = np.empty((d + 1, q))
        m[:d] = (g0.T @ z_in + gd.sum(axis=0).T).T
    else:
        if weights is not None:
            g = np.multiply(g, weights[:, None, None], out=workspace.array(g.shape, "scratch"))
        g0 = g[:, 0, :]
        d = z_in.shape[2]
        m = np.empty((d + 1, q))
        m[:d] = (g.reshape(n * s, q).T @ z_in.reshape(n * s, d)).T
    m[d] = g0.sum(axis=0)
    return m


def loss_gradient(interior: list, r_int, boundary: list, r_bnd, workspace=None) -> np.ndarray:
    """Parameter-space gradient vector of the two-term loss.

    The residual-weighted contraction of the records the Jacobian rows are
    built from, with term weights 1/N each: ``sum_n r_n / N * row_n`` for
    the interior and the condition term.  The interior sum runs over the
    two halves of :meth:`Workspace.split` (None means a fresh workspace);
    each layer's block of the returned vector is (half 0 + half 1) +
    condition term.
    """
    if workspace is None:
        workspace = Workspace()
    w_int = r_int / max(r_int.size, 1)
    w_bnd = r_bnd / max(r_bnd.size, 1)

    def interior_rows(half):
        weights = w_int[half.rows]
        return [param_grad_matrix(z, g, half, weights) for z, g in _rows(interior, half.rows)]

    first, second = workspace.split(r_int.size, interior_rows)
    shapes = _block_shapes(boundary)
    grad = np.empty(sum(p * q for p, q in shapes))
    for out, m0, m1, (zb, gb) in zip(network.layer_blocks(grad, shapes), first, second, boundary):
        np.add(m0 + m1, param_grad_matrix(zb, gb, workspace, w_bnd), out=out)
    return grad


def residual_jacobian_rows(params, batch: pde.Batch, problem) -> tuple:
    """Per-sample residual Jacobians (interior rows, condition rows).

    Interior rows chain the residual's output derivatives through the
    operator-column reverse pass; condition rows are plain output
    Jacobians.  Rows are unscaled; the 1/N weights are applied by the
    Gramian assembly.
    """
    states, out = taylor_forward(params, batch.interior, problem.coeffs)
    seeds = problem.residual_grads(batch.interior, out.value, out.gradient, out.operator)
    adjoints = taylor_backward(params, states, seeds, problem.coeffs)
    _, inputs = network.forward_batch(params, batch.boundary)
    return (
        _interior_jacobian_rows(layer_pairs(params, states, adjoints)),
        _boundary_jacobian_rows(boundary_pairs(inputs, network.backward_batch(params, inputs))),
    )


def dense_gramian(interior: list, boundary: list) -> np.ndarray:
    """engd's dense Gauss-Newton matrix ``J_int^T J_int / N + J_cond^T J_cond / N_cond``
    from the (N, D) rows of the two records."""
    rows_int = _interior_jacobian_rows(interior)
    rows_bnd = _boundary_jacobian_rows(boundary)
    d_total = rows_int.shape[1]
    g = np.zeros((d_total, d_total))
    if rows_int.shape[0]:
        g += rows_int.T @ rows_int / rows_int.shape[0]
    if rows_bnd.shape[0]:
        g += rows_bnd.T @ rows_bnd / rows_bnd.shape[0]
    return _symmetrize(g)


def projected_gramian(interior: list, boundary: list, basis: list, workspace) -> np.ndarray:
    """The Gramian restricted to the span of ``basis``: the (k, k) matrix ``V^T G V``.

    Column j is the Gramian-vector product of the projected rows ``J V``
    of both terms with the j-th coordinate vector; no (N, D) row is formed.
    """
    proj_int = _interior_jacobian_rows(interior, basis, workspace)
    proj_bnd = _boundary_jacobian_rows(boundary, basis, workspace)
    return np.stack([gramian_vec_from_rows(proj_int, proj_bnd, e) for e in np.eye(len(basis))], axis=1)


def gramian_vec_from_rows(rows_int, rows_bnd, v) -> np.ndarray:
    """Gramian-vector product when the Jacobian rows are already available."""
    out = np.zeros_like(np.asarray(v, dtype=np.float64))
    if rows_int.shape[0]:
        out += rows_int.T @ (rows_int @ v) / rows_int.shape[0]
    if rows_bnd.shape[0]:
        out += rows_bnd.T @ (rows_bnd @ v) / rows_bnd.shape[0]
    return out
