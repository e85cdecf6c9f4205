"""Forward and reverse propagation of differential-operator columns.

For an input dimension d, every layer state carries S = d + 2 columns per
sample:

    column 0        : layer value z
    columns 1..d    : first derivatives dz/dx_i
    column d + 1    : the operator column  L z = sum_ij c_ij d^2 z / dx_i dx_j

so a second-order operator of the network output is computed in a single
forward sweep instead of building the full input Hessian.  A batch is the
array ``Z[n, s, :]`` of shape (N, S, h) whose slice ``Z[n, s]`` is column s
of sample n; this layout makes every linear layer one matrix product over
the flattened (N * S, h) view.  Per-sample column identity is preserved so
the curvature factors can be assembled from the same intermediates.

The input state and the first linear layer's output state are never
materialised in this layout.  The input state is the same for every point
apart from its value column (x, then the unit vectors e_i, then 0), so the
first linear layer's derivative columns are the columns of W0^T for every
sample and its operator column is zero.  The forward pass therefore keeps
only the points x (N, d) and the first pre-activation x W0^T + b0 (N, h1).
Every hidden activation, forward and reverse, runs one body on its
incoming columns (value, g, ell); for the first one these are the
pre-activation, W0^T as a (1, d, h1) stack that broadcasts over the batch,
and no operator column, so the shared body yields

    (s0, s1 * W0^T, s2 * q),   q_k = sum_ij c_ij W0[k, i] W0[k, j]

Two forward passes share the hidden layers and differ in the head.
:func:`taylor_forward` serves training steps: it keeps every layer state,
because the reverse pass and the curvature code read them.
:func:`taylor_output` serves loss-only evaluation (the line search of kfac
and engd): it keeps no state and fuses the last hidden activation into the
width-1 output layer, so the last hidden state is never formed.  With
weight row w and the incoming columns (z, g, ell) of that activation,

    u      = s0 . w + b
    grad u = g (s1 * w)
    L u    = (s1 * ell + s2 * sum_ij c_ij g_i g_j) . w

and with one hidden layer (g = W0^T, ell = 0) this is
``(s0 . w + b, s1 (w * W0), s2 . (q * w))`` on (N, h1) arrays alone.

The reverse pass propagates adjoints with the same column layout through
the states of :func:`taylor_forward` and returns one output adjoint per
linear layer.  It stops at the first linear layer's output adjoint and
forms no adjoint of the input.  A layer's parameter gradient of any
linear combination of (u, grad u, L u) is :func:`param_grad_matrix` of
its (input state, output adjoint) pair; for the first layer that is
``g_0^T [x 1]`` plus the batch sum of the derivative-column block.
Each activation's adjoint is computed in place: the product ``g W_l`` is
written into the array that, overwritten by the activation's adjoint,
becomes linear layer l - 1's output adjoint.  The width-1 head makes that
product the outer product ``seeds (x) w``, one broadcast multiply instead
of a matrix product with inner dimension 1.  No record reads the adjoint
of an activation's output, so none is kept.

A training loop passes one :class:`Workspace` through every pass: states,
adjoints and the few full-size temporaries are written into arrays kept
from one step to the next, so a step in steady state allocates only
(N, h)-sized and smaller arrays.  Every array of a pass stays valid until
the next pass through the same workspace; :func:`taylor_output` writes
the same state arrays as :func:`taylor_forward`.

No row of a state or adjoint depends on another row, so
:func:`taylor_forward` and :func:`taylor_backward` run over two fixed,
contiguous halves of the batch (:meth:`Workspace.split`).  Each half
writes its row slice of the full (N, S, h) arrays, so every state and
adjoint stays one array for its consumers, bit-identical to one pass over
the whole batch; each half has temporaries of its own.  A training
state's workspace runs the halves on the calling thread plus the one
thread of a :class:`concurrent.futures.ThreadPoolExecutor`, which starts
at the first split and stops at :meth:`Workspace.close`
(:func:`pinnopt.harness.run_training` closes it in its ``finally``).
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .network import ActivationDerivs, Parameters, tanh_derivs

__all__ = [
    "Workspace",
    "OperatorCoeffs",
    "TaylorOutput",
    "param_grad_matrix",
    "taylor_forward_linear",
    "taylor_forward",
    "taylor_output",
    "taylor_backward",
    "state_records",
    "linear_input_index",
    "linear_output_index",
]


class Workspace:
    """Float64 arrays that the passes of one training loop reuse step after step.

    :meth:`array` hands out an uninitialised array for a key made of a role
    and a layer index, never of a shape, so two layers of equal width get
    distinct arrays.  Each key owns one flat buffer that only grows: a
    later request under the same key returns a view of the same memory and
    overwrites what the previous array under that key held.  Every pass
    uses the same keys: :func:`taylor_output` writes the state arrays of
    :func:`taylor_forward`, so a loss-only pass overwrites the states (and
    the records built on them) of an earlier training pass.  The public
    passes :func:`taylor_forward`, :func:`taylor_output` and
    :func:`taylor_backward` take ``workspace=None`` to mean a fresh
    workspace of their own, which runs the same code and keeps nothing.

    The per-sample passes run through :meth:`split` over two fixed,
    contiguous halves of the batch.  A workspace made with ``worker=True``
    (a training state's) runs them on the calling thread plus the one
    thread of its own single-worker executor, which starts at the first
    :meth:`split` and stops at :meth:`close`; any other workspace, and one
    that is closed, runs both halves on the caller.  The results do not
    depend on which thread took which half.
    """

    def __init__(self, worker: bool = False):
        self._buffers = {}
        # its thread starts at the first submit and ends when the executor is
        # shut down or, for a workspace dropped without close(), collected
        self._executor = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="pinnopt-split") if worker else None
        )

    def __deepcopy__(self, memo) -> "Workspace":
        # arrays are handed out uninitialised, so a fresh workspace is a full copy
        return Workspace(worker=self._executor is not None)

    def array(self, shape, role: str, layer=None) -> np.ndarray:
        size = math.prod(shape)
        return self._buffer(size, role, layer)[:size].reshape(shape)

    def _buffer(self, size: int, role: str, layer) -> np.ndarray:
        """The whole flat buffer of a key, grown to at least ``size``."""
        flat = self._buffers.get((role, layer))
        if flat is None or flat.size < size:
            flat = self._buffers[(role, layer)] = np.empty(size)
        return flat

    def split(self, n: int, fn, records=None) -> list:
        """``[fn(half 0), fn(half 1)]`` over rows ``[0, ceil(n/2))`` and ``[ceil(n/2), n)``.

        A batch of fewer than four rows is not cut: half 0 takes it all and
        half 1 is empty, so that no half of a longer batch is a single row.
        numpy computes a one-row matrix-vector product, such as those at the
        head of :func:`taylor_output`, as a dot product, which rounds
        differently from the same row inside a longer product.

        Each half is a :class:`_Half`: ``half.rows`` is its row slice and
        ``half.array`` serves it like :meth:`array`, with the rows
        ``half.rows`` of ``records[(role, layer)]`` under a key that
        ``records`` holds (full-batch arrays the caller allocated) and a
        temporary of its own under any other key.  ``fn`` runs on either
        thread, so it writes only its own rows and temporaries, and the
        caller adds results that are batch sums in half order.  Half 1 is
        submitted to the worker and half 0 runs on the caller, who then
        cancels half 1 and runs it too if the worker has not started it,
        so a worker that is slow to wake never stalls the caller.  Once
        both halves are done, the first exception a half raised, in half
        order, is raised here.
        """
        cut = n if n < 4 else (n + 1) // 2
        halves = [
            _Half(self, index, rows, records or {})
            for index, rows in enumerate((slice(0, cut), slice(cut, n)))
        ]
        second = None if self._executor is None else self._executor.submit(fn, halves[1])
        first = _run(fn, halves[0])
        if second is None or second.cancel():
            second = _run(fn, halves[1])
        second.exception()  # wait for the worker's half before anything is raised
        return [first.result(), second.result()]

    def close(self) -> None:
        """Shut the worker thread down, if one was started; later splits run on the caller."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


def _run(fn, half) -> Future:
    """``fn(half)`` run on the calling thread, its result or exception held as a future."""
    future = Future()
    try:
        future.set_result(fn(half))
    except Exception as exc:  # raised on the caller by Workspace.split
        future.set_exception(exc)
    return future


class _Half:
    """One half of a :meth:`Workspace.split`: its rows, and arrays for them."""

    def __init__(self, workspace: Workspace, index: int, rows: slice, records: dict):
        self.rows = rows
        self._index = index
        self._workspace = workspace
        self._records = records

    def array(self, shape, role: str, layer=None) -> np.ndarray:
        """The rows of a record the caller allocated, or a temporary of this half.

        Half 0 takes its temporaries from the front of the workspace's
        buffer under the key and half 1 from the back.  Each grows the
        buffer to twice its own request, so the two parts never meet, and
        together they hold no more than one pass over the whole batch.
        """
        full = self._records.get((role, layer))
        if full is not None:
            return full[self.rows]
        size = math.prod(shape)
        flat = self._workspace._buffer(2 * size, role, layer)
        start = 0 if self._index == 0 else flat.size - size
        return flat[start : start + size].reshape(shape)


@dataclass(frozen=True, eq=False)
class OperatorCoeffs:
    """Symmetric coefficient matrix c of the operator sum_ij c_ij d^2/dx_i dx_j."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"coefficients must be square, got shape {c.shape}")
        if c.size and float(np.max(np.abs(c - c.T))) > 1e-12:
            raise ValueError("coefficient matrix must be symmetric")
        object.__setattr__(self, "c", c)
        diagonal = bool(np.all(c == np.diag(np.diagonal(c))))
        object.__setattr__(self, "_diag", np.diagonal(c).copy() if diagonal else None)
        object.__setattr__(self, "_identity", diagonal and bool(np.all(np.diagonal(c) == 1.0)))

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @property
    def is_identity(self) -> bool:
        return self._identity

    def apply(self, g, out=None) -> np.ndarray:
        """Contract the coefficients over the derivative axis of a (N, d, h) stack.

        Diagonal coefficient matrices (every catalog operator) reduce to an
        elementwise scale, written into ``out`` when it is given, avoiding a
        batched matrix product over N tiny matrices.  The identity (the
        Laplacian) returns ``g`` itself and a full matrix a new array, so
        callers use the return value and only read it.
        """
        if self.is_identity:
            return g
        if self._diag is not None:
            return np.multiply(g, self._diag[None, :, None], out=out)
        d = self.dim
        n, _, h = g.shape
        flat = g.transpose(1, 0, 2).reshape(d, n * h)
        return (self.c @ flat).reshape(d, n, h).transpose(1, 0, 2)

    @classmethod
    def laplacian(cls, dim: int) -> "OperatorCoeffs":
        return cls(np.eye(dim))

    @classmethod
    def partial_laplacian(cls, dim: int, active) -> "OperatorCoeffs":
        """Laplacian restricted to the coordinates listed in ``active``."""
        c = np.zeros((dim, dim))
        for i in active:
            c[i, i] = 1.0
        return cls(c)


@dataclass
class TaylorOutput:
    """Network output triple read from the last layer state."""

    value: np.ndarray     # (N,)  u
    gradient: np.ndarray  # (N, d)  du/dx
    operator: np.ndarray  # (N,)  L u


def linear_input_index(layer: int) -> int:
    """Index into the forward states list of linear layer ``layer``'s input."""
    return 2 * layer


def linear_output_index(layer: int) -> int:
    """Index into the forward states list of linear layer ``layer``'s output."""
    return 2 * layer + 1


def param_grad_matrix(z_in, g, workspace: Workspace, weights=None) -> np.ndarray:
    """Batch-summed ``[dW | db]`` of one linear layer, ``sum_n w_n sum_s g_ns zhat_ns^T``.

    ``z_in`` is the layer's input state and ``g`` the (N, S, h_out) adjoint
    of its output; ``zhat`` appends the bias entry (1 in the value column,
    0 elsewhere).  A two-dimensional ``z_in`` holds the points x and stands
    for the input state (x, e_i, 0), whose column sum per sample is
    ``g_n0 [x_n 1]^T + [G_n^T 0]`` with ``G_n`` the derivative-column block
    of ``g_n``.  ``weights`` (N,) scale the samples; None means all ones.
    The scaled adjoint columns that are read go to the workspace's scratch
    array: for points, the operator column is never read.
    """
    n, s, q = g.shape
    if z_in.ndim == 2:
        d = z_in.shape[1]
        g0, gd = g[:, 0, :], g[:, 1 : d + 1, :]
        if weights is not None:
            g0 = g0 * weights[:, None]
            gd = np.multiply(gd, weights[:, None, None], out=workspace.array(gd.shape, "scratch"))
        m = np.empty((q, d + 1))
        m[:, :d] = g0.T @ z_in + gd.sum(axis=0).T
    else:
        if weights is not None:
            g = np.multiply(g, weights[:, None, None], out=workspace.array(g.shape, "scratch"))
        g0 = g[:, 0, :]
        d = z_in.shape[2]
        m = np.empty((q, d + 1))
        m[:, :d] = g.reshape(n * s, q).T @ z_in.reshape(n * s, d)
    m[:, d] = g0.sum(axis=0)
    return m


def _contract_coeffs(coeffs: OperatorCoeffs, g, workspace: Workspace) -> np.ndarray:
    """``coeffs.apply(g)``, into the workspace's coefficient array unless c is the identity."""
    return coeffs.apply(g, None if coeffs.is_identity else workspace.array(g.shape, "coeffs"))


def _quadratic_term(cg, g, workspace: Workspace) -> np.ndarray:
    """``sum_ij c_ij g_i g_j`` per (sample, unit) as ``sum_i (c g)_i g_i``, via the scratch array."""
    return np.sum(np.multiply(cg, g, out=workspace.array(g.shape, "scratch")), axis=1)


def _derivs(z, order: int, workspace: Workspace) -> ActivationDerivs:
    """tanh derivatives of ``z`` up to ``order``, in the workspace's derivative array."""
    return tanh_derivs(z, order, workspace.array((order + 1,) + z.shape, "derivs"))


def _incoming_columns(pre, w0t, d: int) -> tuple:
    """Incoming columns ``(value, g, ell)`` of the activation after ``pre``.

    A two-dimensional ``pre`` is the first pre-activation: its derivative
    columns are ``w0t`` = W0^T for every sample, returned as a (1, d, h1)
    stack that broadcasts over the batch, and its operator column is zero,
    returned as None.  Otherwise they are the column slices of the
    (N, S, h) state ``pre``.
    """
    if pre.ndim == 2:
        return pre, w0t[None], None
    return pre[:, 0, :], pre[:, 1 : d + 1, :], pre[:, d + 1, :]


def taylor_forward_linear(w, b, z_in, workspace: Workspace, layer=None) -> np.ndarray:
    """Linear layer: every column is multiplied by W, bias hits the value column.

    The output is the workspace's state array of index ``layer``.
    """
    w = np.asarray(w, dtype=np.float64)
    z_in = np.asarray(z_in, dtype=np.float64)
    if z_in.shape[2] != w.shape[1]:
        raise ValueError(f"state width {z_in.shape[2]} does not match weight {w.shape}")
    n, s, h_in = z_in.shape
    z_out = workspace.array((n, s, w.shape[0]), "state", layer)
    np.matmul(z_in.reshape(n * s, h_in), w.T, out=z_out.reshape(n * s, w.shape[0]))
    z_out[:, 0, :] += b
    return z_out


def _activation_state(derivs: ActivationDerivs, g, ell, coeffs, workspace, layer) -> np.ndarray:
    """Element-wise activation layer on the incoming columns (z, g, ell).

    Value and derivative columns follow the chain rule; the operator column
    picks up the quadratic first-derivative term:

        L z_out = s1 * L z_in + sum_ij c_ij * s2 * dz_i * dz_j

    Writes ``(s0, s1 * g, s2 * quad + s1 * ell)`` into the workspace's state
    array of index ``layer``; ``ell`` None is a zero operator column.
    """
    n, h = derivs.s0.shape
    d = coeffs.dim
    z_out = workspace.array((n, d + 2, h), "state", layer)
    z_out[:, 0, :] = derivs.s0
    np.multiply(derivs.s1[:, None, :], g, out=z_out[:, 1 : d + 1, :])
    quad = _quadratic_term(_contract_coeffs(coeffs, g, workspace), g, workspace)
    np.multiply(derivs.s2, quad, out=z_out[:, d + 1, :])
    if ell is not None:
        z_out[:, d + 1, :] += np.multiply(derivs.s1, ell, out=quad)
    return z_out


def _check_points(params: Parameters, x, coeffs: OperatorCoeffs) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a batch of points with shape (N, d)")
    d = x.shape[1]
    if d != params.input_dim:
        raise ValueError(f"input dim {d} does not match network input {params.input_dim}")
    if coeffs.dim != d:
        raise ValueError(f"operator dim {coeffs.dim} does not match input dim {d}")
    return x


def _linear_net_output(x, pre, w0) -> TaylorOutput:
    """Output triple of a net that is one linear layer: x W0^T + b0, W0, 0."""
    n = x.shape[0]
    return TaylorOutput(
        value=pre[:, 0].copy(),
        gradient=np.repeat(w0, n, axis=0),
        operator=np.zeros(n),
    )


def _hidden_activation(pre, w0t, coeffs: OperatorCoeffs, workspace, layer) -> np.ndarray:
    """Full state after the activation of pre-activation ``pre``, as state ``layer``."""
    value, g, ell = _incoming_columns(pre, w0t, coeffs.dim)
    return _activation_state(_derivs(value, 2, workspace), g, ell, coeffs, workspace, layer)


def _forward_to_last_activation(params: Parameters, x, coeffs: OperatorCoeffs, workspace) -> np.ndarray:
    """Propagate x up to the pre-activation of the last hidden activation.

    Returns the (N, h1) first pre-activation when the net has at most one hidden
    layer, else the (N, S, h) output state of the second-to-last linear layer.
    State i of the forward list is written into the workspace's state array i.
    """
    w0 = params.weights[0]
    pre = np.matmul(x, w0.T, out=workspace.array((x.shape[0], w0.shape[0]), "state", 1))
    pre += params.biases[0]
    for l in range(1, params.n_linear - 1):
        z = _hidden_activation(pre, w0.T, coeffs, workspace, linear_input_index(l))
        pre = taylor_forward_linear(
            params.weights[l], params.biases[l], z, workspace, linear_output_index(l)
        )
    return pre


def state_records(params: Parameters, n: int, workspace: Workspace) -> dict:
    """The workspace's forward states 1, 2, ... for ``n`` points, as :meth:`Workspace.split` records.

    Keyed ``("state", i)``: the (N, h1) first pre-activation, then the
    (N, S, h) states.  A split pass of :func:`taylor_forward` or
    :func:`taylor_output` given them writes its rows of these full-batch
    arrays instead of temporaries of its own.
    """
    s = params.input_dim + 2
    widths = params.widths
    shapes = [(n, widths[1])] + [(n, s, widths[(i + 1) // 2]) for i in range(2, 2 * params.n_linear)]
    return {("state", i): workspace.array(shape, "state", i) for i, shape in enumerate(shapes, 1)}


def taylor_forward(params: Parameters, x, coeffs: OperatorCoeffs, workspace=None) -> tuple:
    """Propagate value, gradient and operator columns through the net.

    Returns ``(states, out)``.  ``states[0]`` is the (N, d) array of points
    x and ``states[1]`` the (N, h1) pre-activation ``x W0^T + b0``, the
    value column of the first linear layer's output (its other columns are
    the same for every sample; see the module docstring).  Every further
    entry is the full (N, S, h) output state of one sequential layer,
    activation and linear interleaved.  ``out`` is the
    :class:`TaylorOutput` triple of the scalar network output.

    The states live in ``workspace`` (a fresh one when None) and stay valid
    until the next :func:`taylor_forward` or :func:`taylor_output` through
    the same workspace.  Each half of :meth:`Workspace.split` writes its
    rows of every state; no row depends on another.
    """
    x = _check_points(params, x, coeffs)
    if workspace is None:
        workspace = Workspace()
    n, d = x.shape
    records = state_records(params, n, workspace)
    states = [x, *records.values()]

    def forward_rows(half):
        pre = _forward_to_last_activation(params, x[half.rows], coeffs, half)
        if params.n_linear > 1:
            last = params.n_linear - 1
            z = _hidden_activation(pre, params.weights[0].T, coeffs, half, linear_input_index(last))
            taylor_forward_linear(
                params.weights[-1], params.biases[-1], z, half, linear_output_index(last)
            )

    workspace.split(n, forward_rows, records)
    if params.n_linear == 1:
        return states, _linear_net_output(x, states[1], params.weights[0])
    z = states[-1]
    out = TaylorOutput(
        value=z[:, 0, 0].copy(),
        gradient=z[:, 1 : d + 1, 0].copy(),
        operator=z[:, d + 1, 0].copy(),
    )
    return states, out


def taylor_output(params: Parameters, x, coeffs: OperatorCoeffs, workspace=None) -> TaylorOutput:
    """The output triple of :func:`taylor_forward` without any layer state.

    The output layer has width 1, so the last hidden activation is
    contracted straight into its weight row w (module docstring): with
    incoming derivative columns g and operator column ell,

        value    = s0 . w + b
        gradient = g (s1 * w)
        operator = (s1 * ell + s2 * quad) . w,   quad = sum_ij c_ij g_i g_j

    For one hidden layer g = W0^T, ell = 0 and quad = q, so only (N, h1)
    and (N, d) arrays are formed.  The hidden states are written into the
    state arrays of ``workspace`` (a fresh one when None), over those of
    an earlier :func:`taylor_forward` through it.
    """
    x = _check_points(params, x, coeffs)
    if workspace is None:
        workspace = Workspace()
    pre = _forward_to_last_activation(params, x, coeffs, workspace)
    if params.n_linear == 1:
        return _linear_net_output(x, pre, params.weights[0])
    w = params.weights[-1][0]
    b = params.biases[-1][0]
    value, g, ell = _incoming_columns(pre, params.weights[0].T, coeffs.dim)
    s = _derivs(value, 2, workspace)
    quad = _quadratic_term(_contract_coeffs(coeffs, g, workspace), g, workspace)
    if ell is None:
        # (N, h1) matrix products instead of a broadcast over the (1, d, h1) g
        gradient = s.s1 @ (w[:, None] * params.weights[0])
        operator = s.s2 @ (quad[0] * w)
    else:
        gradient = np.einsum("nih,nh->ni", g, s.s1 * w)
        quad *= s.s2
        quad += s.s1 * ell
        operator = quad @ w
    return TaylorOutput(value=s.s0 @ w + b, gradient=gradient, operator=operator)


def _activation_backward(
    derivs: ActivationDerivs, g, ell, g_out, coeffs: OperatorCoeffs, workspace: Workspace
) -> np.ndarray:
    """Adjoint of :func:`_activation_state`, in place.

    With incoming columns (z, g_i, ell), ``derivs`` the tanh derivatives of
    z up to third order, and output adjoints (vb, gb_i, lb):

        lb_in   = s1 * lb
        gb_in,i = s1 * gb_i + 2 sum_j c_ij s2 * g_j * lb
        vb_in   = s1 * vb + sum_i s2 * g_i * gb_i
                  + s2 * ell * lb + s3 * (sum_ij c_ij g_i g_j) * lb

    The s3 term is the derivative of the quadratic part w.r.t. the
    pre-activation value, which is why third derivatives are required.
    ``g`` may broadcast over the batch and ``ell`` None is a zero operator
    column (:func:`_incoming_columns`).  ``g_out`` is overwritten with the
    input adjoint and returned: the value column first and the operator
    column last, because each reads the incoming columns after it.
    """
    d = coeffs.dim
    s = derivs
    vb = g_out[:, 0, :]
    gb = g_out[:, 1 : d + 1, :]
    lb = g_out[:, d + 1, :]

    cg = _contract_coeffs(coeffs, g, workspace)
    quad = _quadratic_term(cg, g, workspace)
    scratch = workspace.array(gb.shape, "scratch")

    vb *= s.s1
    vb += s.s2 * np.sum(np.multiply(g, gb, out=scratch), axis=1)
    if ell is not None:
        vb += s.s2 * ell * lb
    vb += s.s3 * quad * lb
    np.multiply((2.0 * s.s2 * lb)[:, None, :], cg, out=scratch)
    gb *= s.s1[:, None, :]
    gb += scratch
    lb *= s.s1
    return g_out


def taylor_backward(
    params: Parameters, states: list, seeds, coeffs: OperatorCoeffs, workspace=None
) -> list:
    """Reverse pass through the states produced by :func:`taylor_forward`.

    ``seeds`` has shape (N, S) and holds, per sample, the adjoint of the
    output triple in column layout ``[u_bar, grad_bar..., op_bar]``.
    Returns ``adjoints``: ``adjoints[l]`` is the (N, S, h) adjoint of
    linear layer l's output state in full column layout, for layer 0 of
    the complete output state although the forward pass kept only its
    value column.  Layer l's parameter gradient is
    :func:`param_grad_matrix` of its (input state, output adjoint) pair,
    and these pairs feed the curvature assembly in :mod:`pinnopt.curvature`.

    The head's adjoint is a view of the seeds.  Every other adjoint l is
    formed as ``g @ W_{l+1}`` in the workspace's adjoint array of index l
    (a fresh workspace when None) and taken through the activation in
    place; it stays valid until the next reverse pass through the same
    workspace.  A width-1 layer (the head) makes that product the outer
    product of g and its weight row, written by one broadcast multiply.
    Each half of :meth:`Workspace.split` writes its rows of every adjoint.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    d = coeffs.dim
    n = states[0].shape[0]
    if seeds.shape != (n, d + 2):
        raise ValueError(f"seeds must have shape ({n}, {d + 2}), got {seeds.shape}")
    if len(states) != 2 * params.n_linear:
        raise ValueError("states do not match the network layout")
    if workspace is None:
        workspace = Workspace()

    adjoints = [workspace.array((n, d + 2, h), "adjoint", l) for l, h in enumerate(params.widths[1:-1])]
    adjoints.append(seeds[:, :, None])

    def backward_rows(half):
        g = adjoints[-1][half.rows]
        for l in reversed(range(1, params.n_linear)):
            w = params.weights[l]
            adjoint = adjoints[l - 1][half.rows]
            if w.shape[0] == 1:
                # a matmul with inner dimension 1 is one tiny gemm per sample
                np.multiply(g, w[0], out=adjoint)
            else:
                # 2-D product over (n S, .) views (C-contiguous rows, so out= writes the adjoint):
                # a 3-D matmul rounds differently for the transposed-view W once w.shape[0] >= 32
                np.matmul(g.reshape(-1, w.shape[0]), w, out=adjoint.reshape(-1, w.shape[1]))
            pre = states[linear_output_index(l - 1)][half.rows]
            value, g_in, ell = _incoming_columns(pre, params.weights[0].T, d)
            _activation_backward(_derivs(value, 3, half), g_in, ell, adjoint, coeffs, half)
            g = adjoint

    workspace.split(n, backward_rows)
    return adjoints
