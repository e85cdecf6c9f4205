"""Kronecker-factored and exact curvature of the two-term training loss.

Both loss terms are read from one record per step: per linear layer the
pair (input z, output gradient g) with S shared columns per sample.  The
interior record is what the operator-column reverse pass
:func:`pinnopt.taylor.taylor_backward` returns (S = d + 2), the condition
record comes from the plain forward/backward pass seen as S = 1
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

No interior entry holds its (N, S, h) arrays (see :mod:`pinnopt.taylor`):

- layer 0's input is the points x (N, d), which stand for the columns x_n
  (value), e_i (derivatives) and 0 (operator);
- every later input is an activation's
  :class:`~pinnopt.taylor.FactoredState`: (N, h) value columns S0, slopes
  S1 and operator columns O over derivative columns G_i, its derivative
  column i being ``s1 o G_i`` (o: elementwise).  After the first
  activation G_i is row i of W0^T for every sample (shared columns), after
  a later one a per-sample view of its pre-activation;
- the last hidden layer's output gradient is a
  :class:`~pinnopt.taylor.FactoredAdjoint`: (N, h) factors V, A, B stacking
  v_n, a_n, beta_n, the seeds (u_bar, P, l_bar) and the last activation's
  incoming columns F, its derivative column i being ``p_i a + beta o (c F)_i``
  with c the operator's coefficients, and its operator column ``l_bar a``.
  With one hidden layer F is W0^T and M = c W0^T (d, h1);
- the head's output gradient is the width-1 seed (u_bar, P, l_bar), and
  every other output gradient a full (N, S, q) array.

The condition record's layer-0 input is ``x[:, None, :]``, three-dimensional
like every other S = 1 input, so a two-dimensional input always means
the points.  This module alone reads a record; :mod:`pinnopt.taylor`
alone builds the interior record, and the optimizers pass the records
through unchanged.

The A and B sums read one side of an entry each, in closed form:

    sum zhat zhat^T (points)  =  [x 1]^T [x 1] + N diag(1_d, 0)
    sum zhat zhat^T (state)   =  S0^T S0 + O^T O + (S1^T S1) o (W0 W0^T)
    sum g g^T (adjoint)       =  V^T V + A^T diag(|p_n|^2 + l_n^2) A + A^T K + K^T A
                                 + sum_i (B o (c F)_i)^T (B o (c F)_i),    K = B o sum_i (c P)_i F_i

the state's for shared columns; per-sample columns are summed one at a
time.  For shared columns K = (P M) o B and the last sum is
(M^T M) o (B^T B).  W0 W0^T and M^T M depend on the parameters alone, so
the split factor sums form them once (:func:`_parameter_grams`).

The gradient block, kfac_star's ``J V`` and engd's rows read an entry's
weight rows ``sum_s z_ns g_ns^T`` as a short list of terms
(:func:`_terms`), each one of two forms:

    outer term (L, C, R), R (N, q):           adds diag(L_n) C diag(R_n)
    block term (None, None, R), R (N, d, q):  adds R_n

with L None standing for ones: C None gives L_n R_n^T, C (h, 1) scales
the rows and C (h, q) weights each entry.  The block term is the points'
identity derivative block.  The entries' terms:

    full input               (z_s, g_s) for each column s (the condition record: S = 1)
    points, full g           (x, g_0) and the block [g_1 .. g_d]
    points, adjoint          (x, v), (P, a) and (1, M, beta)
    state, full g            (s0, g_0), (O, g_o) and (s1 o G_i, g_i) for each i;
                             shared columns: (s1, W0^T[i], g_i)
    state, adjoint           (s0, v), (s1 o sum_i p_i G_i + l_bar O, a) and
                             (s1 o G_i, beta o (c F)_i) for each i that c keeps;
                             shared columns: (s1, W0^T[i], beta o (c F)_i)
    state, head              (s0, u_bar) and (s1 o sum_i p_i G_i + l_bar O, 1)

The head's pair is the adjoint's with a = 1 and no curvature columns.
The first term is always the value columns' pair, whose R is the bias
row's g_n0.  Formed columns take (N, h) arrays, so no reader forms an
(N, S, h) array: the points' and the shared columns' closed forms stay
in their terms.

kfac_star needs the Gramian only on the span of k <= 2 directions
V = [Delta, prev], so it asks for the projected rows ``J V`` (N, k)
instead of the (N, D) rows.  With ``[dW_k | db_k]^T`` the layer's block of
direction k, each layer adds

    (J V)_nk += sum_s g_ns . (dW_k z_ns) + g_n0 . db_k

one (N, h) x (h, k q) product per outer term for all k at once.
:func:`projected_gramian` returns ``V^T G V``, the Gramian-vector products
of the (N, k) rows with the coordinate vectors as columns.  Only engd
forms the (N, D) rows, in :func:`dense_gramian`.  These two are the
optimizers' only way to the Gauss-Newton matrix.

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
from .taylor import FactoredAdjoint, FactoredState, Workspace, taylor_backward, taylor_forward

__all__ = [
    "KfacState",
    "init_kfac_state",
    "initial_curvature",
    "ema_update",
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
# samples per pass of _jacobian_rows, so that its per-term arrays stay small next to the (N, D) rows
ROW_BLOCK = 128


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


def boundary_pairs(inputs: list, grads: list) -> list:
    """The condition record (S = 1): (N, 1, h) views of the layer inputs of
    :func:`network.forward_batch` and the gradients :func:`network.backward_batch`."""
    return [(z[:, None, :], g[:, None, :]) for z, g in zip(inputs, grads)]


def _rows(record, rows: slice) -> list:
    """The samples ``rows`` of a record."""
    return [(z[rows], g[rows]) for z, g in record]


def _input_gram(z, column_gram=None):
    """``sum_{n,s} zhat_ns zhat_ns^T`` with the bias entry implicit.

    A two-dimensional ``z`` holds the points of the input state, whose
    derivative columns add N to the diagonal of the weight block.  A
    :class:`FactoredState` adds ``S0^T S0 + O^T O`` and its derivative
    columns: ``(S1^T S1) o column_gram`` when they are W0^T, with
    ``column_gram`` = W0 W0^T, else the sum over its derivative columns one
    at a time.
    """
    n, h = z.shape[0], z.shape[-1]
    if isinstance(z, FactoredState):
        value = z.value
        gram = value.T @ value + z.operator.T @ z.operator
        if z.shared:
            gram += (z.slope.T @ z.slope) * column_gram
        else:
            for column in z.derivative_columns():
                gram += column.T @ column
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


def _output_gram(g, m_gram=None) -> np.ndarray:
    """``sum_{n,s} g_ns g_ns^T``, for a :class:`FactoredAdjoint` in the module docstring's
    closed form, with ``m_gram`` = M^T M for shared columns.  Per-sample
    columns are contracted one at a time.
    """
    if isinstance(g, FactoredAdjoint):
        p, l_bar = g.grad, g.seeds[:, -1]
        a, beta = g.slope, g.curvature
        norms = np.einsum("ni,ni->n", p, p) + l_bar * l_bar
        if g.shared:
            ak = a.T @ ((p @ g.m) * beta)
            return g.value.T @ g.value + a.T @ (norms[:, None] * a) + ak + ak.T + m_gram * (beta.T @ beta)
        k = np.matmul((p @ g.coeffs.c)[:, None, :], g.columns)[:, 0, :] * beta
        # A^T diag(norms) A + A^T K + K^T A as H + H^T, H = A^T (norms A / 2 + K)
        k += 0.5 * norms[:, None] * a
        half = a.T @ k
        gram = g.value.T @ g.value + half + half.T
        for _, column in g.curvature_columns():
            gram += column.T @ column
        return gram
    n, s, q = g.shape
    gf = g.reshape(n * s, q)
    return gf.T @ gf


def _parameter_grams(record) -> list:
    """Per layer the parameter-only products of :func:`_factor_sums`: ``(W0 W0^T, M^T M)``.

    Each is None unless the layer's input is a :class:`FactoredState`, or
    its output gradient a :class:`FactoredAdjoint`, with columns W0^T.  A
    split sum forms them once, not once per half.
    """
    return [
        (
            z.columns.T @ z.columns if isinstance(z, FactoredState) and z.shared else None,
            g.m.T @ g.m if isinstance(g, FactoredAdjoint) and g.shared else None,
        )
        for z, g in record
    ]


def _factor_sums(record, grams=None) -> list:
    """Per layer the batch sums ``(sum zhat zhat^T, sum g g^T)`` of a record.

    ``grams`` are the record's :func:`_parameter_grams`, formed here when None.
    """
    sums = []
    for l, ((z, g), (column_gram, m_gram)) in enumerate(zip(record, grams or _parameter_grams(record))):
        n, s, _ = g.shape
        columns = z.shape[1] + 2 if z.ndim == 2 else z.shape[1]
        if z.shape[0] != n or columns != s:
            raise ValueError(f"layer {l}: input {z.shape} does not match gradient {g.shape}")
        sums.append((_input_gram(z, column_gram), _output_gram(g, m_gram)))
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


def interior_factor_update(state: KfacState, interior: list, ema: float, workspace=None) -> KfacState:
    """Accumulate the interior factors from the interior record (:func:`taylor_backward`).

    ``ema`` is the moving-average weight on the previous factors.  The
    batch sums run over the two halves of :meth:`Workspace.split` (None
    means a fresh workspace) and are added as half 0 + half 1.
    """
    if workspace is None:
        workspace = Workspace()
    n = interior[0][1].shape[0]
    grams = _parameter_grams(interior)
    first, second = workspace.split(n, lambda half: _factor_sums(_rows(interior, half.rows), grams))
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

def _terms(z, g):
    """One record entry's weight rows ``sum_s z_ns g_ns^T`` (N, h, q) as terms (L, C, R).

    The terms and their two forms, outer (R of shape (N, q)) and the
    points' identity block (R of shape (N, d, q)), are those of the module
    docstring; the first is
    always the value columns' pair, whose R is the bias row's ``g_n0``.  A
    formed L is valid until the next term.
    """
    if not isinstance(z, FactoredState):
        if z.ndim == 3:
            for s in range(z.shape[1]):
                yield z[:, s, :], None, g[:, s, :]
        elif isinstance(g, FactoredAdjoint):
            yield z, None, g.value
            yield g.grad, None, g.slope
            yield None, g.m, g.curvature
        else:
            yield z, None, g[:, 0, :]
            yield None, None, g[:, 1 : z.shape[1] + 1, :]
        return
    d = z.shape[1] - 2
    factored = isinstance(g, FactoredAdjoint)
    yield z.value, None, g.value if factored else g[:, 0, :]
    if not factored and g.shape[2] > 1:
        yield z.operator, None, g[:, -1, :]
        if z.shared:
            for i in range(d):
                yield z.slope, z.columns[i][:, None], g[:, 1 + i, :]
            return
        for i, column in enumerate(z.derivative_columns()):
            yield column, None, g[:, 1 + i, :]
        return
    seeds = g.seeds if factored else g[:, :, 0]
    p = seeds[:, 1 : d + 1]
    y = p @ z.columns if z.shared else np.matmul(p[:, None, :], z.columns)[:, 0]
    y *= z.slope
    y += seeds[:, -1:] * z.operator
    yield y, None, g.slope if factored else np.ones((y.shape[0], 1))
    if not factored:
        return
    column = None
    for i, term in g.curvature_columns():
        if z.shared:
            yield z.slope, z.columns[i][:, None], term
        else:
            column = np.multiply(z.slope, z.columns[:, i, :], out=column)
            yield column, None, term


def _block_shapes(record) -> list:
    """The (h_in + 1, h_out) parameter block shape of each layer of a record."""
    return [(z.shape[-1] + 1, g.shape[2]) for z, g in record]


def _jacobian_rows(record):
    """Stack one loss term's per-sample residual Jacobians into an (N, D) matrix.

    Per layer the row segment is the block ``sum_s zhat_ns g_ns^T``, written
    in place through its per-sample views (:func:`pinnopt.network.layer_blocks`):
    the weight rows are the sum of the entry's :func:`_terms`, the bias row
    is ``g_n0``.  The rows are formed ``ROW_BLOCK`` samples at a time.
    """
    shapes = _block_shapes(record)
    n = record[0][1].shape[0]
    rows = np.empty((n, sum(p * q for p, q in shapes)))
    for start in range(0, n, ROW_BLOCK):
        part = slice(start, start + ROW_BLOCK)
        for view, (z, g) in zip(network.layer_blocks(rows[part], shapes), _rows(record, part)):
            h = z.shape[-1]
            weight = view[:, :h, :]
            term = np.empty(weight.shape)
            for j, (left, c, right) in enumerate(_terms(z, g)):
                if j == 0:
                    # the value columns' pair (L, None, R) starts the weight rows
                    view[:, h, :] = right
                    np.multiply(left[:, :, None], right[:, None, :], out=weight)
                elif right.ndim == 3:
                    weight += right
                else:
                    product = right[:, None, :] if c is None else np.multiply(c, right[:, None, :], out=term)
                    weight += product if left is None else np.multiply(left[:, :, None], product, out=term)
    return rows


def _projected_rows(record, basis):
    """One loss term's residual Jacobian applied to k directions, ``J V`` (N, k).

    ``basis[k]`` is a parameter-space vector.  Per layer
    ``(J V)_nk += sum_s g_ns . (dW_k z_ns) + g_n0 . db_k``, summed over the
    entry's :func:`_terms`: an outer term with L adds the row dots of R with
    ``L (C o dW_k^T)``, one (N, h) x (h, k q) product into one array per
    entry, and one without L ``R colsum(C o dW_k^T)``; the identity block
    adds ``<R_n, dW_k^T>``.  No row is formed.
    """
    n = record[0][1].shape[0]
    out = np.zeros((n, len(basis)))
    for (z, g), blocks in zip(record, network.layer_blocks(np.asarray(basis), _block_shapes(record))):
        k, h, q = blocks.shape[0], blocks.shape[1] - 1, blocks.shape[2]
        dw = blocks[:, :h, :]
        w_t = np.ascontiguousarray(dw.transpose(1, 0, 2))
        product = np.empty((n, k * q))
        for j, (left, c, right) in enumerate(_terms(z, g)):
            if j == 0:
                out += right @ blocks[:, h, :].T
            if right.ndim == 3:
                out += right.reshape(n, h * q) @ dw.reshape(k, h * q).T
                continue
            cw = w_t if c is None else c[:, None, :] * w_t
            if left is None:
                out += right @ cw.sum(axis=0).T
            else:
                np.matmul(left, cw.reshape(h, k * q), out=product)
                out += np.einsum("nkq,nq->nk", product.reshape(n, k, q), right)
    return out


# one entry per loss term, so that perfbench/tracing.py can time each by name
def _interior_jacobian_rows(interior, basis=None, workspace=None):
    """Interior residual Jacobian rows (N, D) from the interior record, or ``J V`` for a
    basis, stacked from its rows over the two halves of :meth:`Workspace.split`
    (None means a fresh workspace)."""
    if basis is None:
        return _jacobian_rows(interior)
    if workspace is None:
        workspace = Workspace()

    def half_rows(half):
        return _projected_rows(_rows(interior, half.rows), basis)

    return np.concatenate(workspace.split(interior[0][1].shape[0], half_rows))


def _boundary_jacobian_rows(boundary, basis=None):
    """Condition residual Jacobian rows (N, D) from the condition record, or ``J V`` for a basis."""
    return _jacobian_rows(boundary) if basis is None else _projected_rows(boundary, basis)


def param_grad_matrix(z_in, g, weights) -> np.ndarray:
    """Batch-summed ``[dW | db]^T`` block of one linear layer, ``sum_n w_n sum_s zhat_ns g_ns^T``.

    ``z_in`` is the layer's input and ``g`` the (N, S, h_out) gradient of its
    output, one layer's entry of a record; ``zhat`` appends the bias entry
    (1 in the value column, 0 elsewhere).  ``weights`` (N,) scale the
    samples.  The weight rows are summed over the entry's :func:`_terms`: an
    outer term adds ``C o (L^T (w o R))``, the identity block
    ``sum_n w_n R_n``; the bias row is ``w^T g_0``.  The result is the layer's (h_in + 1, h_out)
    block of :func:`pinnopt.network.layer_blocks`.
    """
    h, q = z_in.shape[-1], g.shape[2]
    m = np.zeros((h + 1, q))
    weighted = np.empty((g.shape[0], q))
    for j, (left, c, right) in enumerate(_terms(z_in, g)):
        if right.ndim == 3:
            m[:h] += np.einsum("n,nmq->mq", weights, right)
            continue
        wr = np.multiply(weights[:, None], right, out=weighted)
        if j == 0:
            m[h] = wr.sum(axis=0)
        s = wr.sum(axis=0) if left is None else left.T @ wr
        m[:h] += s if c is None else c * s
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
    w_int = r_int / r_int.size
    w_bnd = r_bnd / r_bnd.size

    def interior_rows(half):
        weights = w_int[half.rows]
        return [param_grad_matrix(z, g, weights) for z, g in _rows(interior, half.rows)]

    first, second = workspace.split(r_int.size, interior_rows)
    shapes = _block_shapes(boundary)
    grad = np.empty(sum(p * q for p, q in shapes))
    for out, m0, m1, (zb, gb) in zip(network.layer_blocks(grad, shapes), first, second, boundary):
        np.add(m0 + m1, param_grad_matrix(zb, gb, w_bnd), out=out)
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
    interior = taylor_backward(params, states, seeds, problem.coeffs)
    _, inputs = network.forward_batch(params, batch.boundary)
    return (
        _interior_jacobian_rows(interior),
        _boundary_jacobian_rows(boundary_pairs(inputs, network.backward_batch(params, inputs))),
    )


def dense_gramian(interior: list, boundary: list) -> np.ndarray:
    """engd's dense Gauss-Newton matrix ``J_int^T J_int / N + J_cond^T J_cond / N_cond``
    from the (N, D) rows of the two records."""
    rows_int = _interior_jacobian_rows(interior)
    rows_bnd = _boundary_jacobian_rows(boundary)
    return _symmetrize(rows_int.T @ rows_int / rows_int.shape[0] + rows_bnd.T @ rows_bnd / rows_bnd.shape[0])


def projected_gramian(interior: list, boundary: list, basis: list, workspace) -> np.ndarray:
    """The Gramian restricted to the span of ``basis``: the (k, k) matrix ``V^T G V``.

    Column j is the Gramian-vector product of the projected rows ``J V``
    of both terms with the j-th coordinate vector; no (N, D) row is formed.
    """
    proj_int = _interior_jacobian_rows(interior, basis, workspace)
    proj_bnd = _boundary_jacobian_rows(boundary, basis)
    return np.stack([gramian_vec_from_rows(proj_int, proj_bnd, e) for e in np.eye(len(basis))], axis=1)


def gramian_vec_from_rows(rows_int, rows_bnd, v) -> np.ndarray:
    """Gramian-vector product when the Jacobian rows are already available."""
    return rows_int.T @ (rows_int @ v) / rows_int.shape[0] + rows_bnd.T @ (rows_bnd @ v) / rows_bnd.shape[0]
