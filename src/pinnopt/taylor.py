"""Forward and reverse propagation of differential-operator columns.

For an input dimension d, every layer state carries S = d + 2 columns per
sample:

    column 0        : layer value z
    columns 1..d    : first derivatives dz/dx_i
    column d + 1    : the operator column  L z = sum_ij c_ij d^2 z / dx_i dx_j

so a second-order operator of the network output is computed in a single
forward sweep instead of building the full input Hessian.  A batch is the
array ``Z[n, s, :]`` of shape (N, S, h) whose slice ``Z[n, s]`` is column s
of sample n; this layout makes the adjoint of every linear layer one
matrix product over the flattened (N * S, h) view.  Per-sample column
identity is preserved so the curvature factors can be assembled from the
same intermediates.

The input state and the first linear layer's output state are never
materialised in this layout.  The input state is the same for every point
apart from its value column (x, then the unit vectors e_i, then 0), so the
first linear layer's derivative columns are the columns of W0^T for every
sample and its operator column is zero.  The forward pass therefore keeps
only the points x (N, d) and the first pre-activation x W0^T + b0 (N, h1).

No activation's output state is materialised either.  An activation acts
on each sample and unit alone, so its state is fixed by (N, h) factors
over its incoming columns (value, g, ell), a :class:`FactoredState`:

    value s0,   derivative columns s1 * g_i,   operator s2 * quad + s1 * ell,
    quad = sum_ij c_ij g_i g_j

For the first activation g is W0^T, shared by the batch, ell is zero and
quad is the parameter-only q_k = sum_ij c_ij W0[k, i] W0[k, j]; for a later
one g and ell are columns of its (N, S, h) pre-activation, which the state
views.  The next linear layer's output is formed from the factors: its
value and operator columns are (N, h) x (h, h') products, and its
derivative block is ``s1 K`` after the first activation, with the
parameter-only K[a, (i, b)] = W0[a, i] W1[b, a], or one (N, h) x (h, h')
product per derivative column after a later one.  A training step
therefore keeps no full-size array but the pre-activations of linear
layers 1 and up and the adjoints below the last hidden layer's, and the
curvature code reads the factored states in closed form or one derivative
column at a time.

Both forward passes end in the same fused head.  The output layer has
width 1, so the last activation is contracted straight into its weight row
w: with the incoming columns (z, g, ell) of that activation,

    u      = s0 . w + b
    grad u = g (s1 * w)
    L u    = (s1 * ell + s2 * sum_ij c_ij g_i g_j) . w

and with one hidden layer (g = W0^T, ell = 0) this is
``(s0 . w + b, s1 (w * W0), s2 . (q * w))`` on (N, h1) arrays alone.
:func:`taylor_output` serves loss-only evaluation (the line search of kfac
and engd) and returns the triple alone; :func:`taylor_forward` serves
training steps and returns the states as well.

The last hidden layer's output adjoint is factored as well.  The head
has width 1, so the adjoint of the last activation's output is
``seeds (x) w``; taken through the activation, whose incoming columns are
(z, G, ell) with quadratic term quad, it is fixed by the seeds
``(u_bar, p, l_bar)`` of each sample and three (N, h) factors, a
:class:`FactoredAdjoint`:

    value column            v = w * (u_bar s1 + s2 * (sum_i p_i G_i) + l_bar (s2 * ell + s3 * quad))
    derivative column i     p_i a + beta * (c G)_i,   a = s1 * w,  beta = 2 l_bar s2 * w
    operator column         l_bar a

With one hidden layer G is W0^T, ell is zero and quad is q, so with
M = C W0^T (d, h1) the derivative block is ``p a^T + M diag(beta)`` and
the net keeps no (N, S, h) array at all: :func:`taylor_forward` keeps only
the pre-activation, and :func:`taylor_backward` forms layer 1's input
(s0, s1 * W0^T, s2 * q) from it too.  Every sum a training step reads from
these two entries is a product of (N, h1) and (N, d) arrays, O(N h1
(h1 + d)) work instead of O(N S h1^2).  With two or more hidden layers G
is a view of the last pre-activation's derivative block, and the next
adjoint down is formed straight from the factors: value column v W,
derivative column i ``p_i (a W) + (beta * (c G)_i) W``, operator column
``l_bar (a W)``, with c applied one column at a time.

The reverse pass propagates adjoints with the same column layout through
the states of :func:`taylor_forward` and stops at the first linear
layer's output adjoint, forming no adjoint of the input.  It returns the
interior record: per linear layer the pair (input state, output
adjoint), which :mod:`pinnopt.curvature` reads for the parameter
gradient of any linear combination of (u, grad u, L u), the Kronecker
factors and the Jacobian rows.  Which forward state holds which layer's
input is known to this module alone.
Below the last hidden layer each activation's adjoint is computed in
place: the product ``g W_l`` is written into the array that, overwritten
by the activation's adjoint, becomes linear layer l - 1's output adjoint.
No record reads the adjoint of an activation's output, so none is kept.
The tanh derivatives s0 and s1 of a deeper net's activations are read
from their kept states, and only s2 and s3 are formed again.

A training loop passes one :class:`Workspace` through every pass: states,
adjoints and the tanh derivatives are written into arrays kept
from one step to the next, so a step in steady state allocates only
(N, h)-sized and smaller arrays.  Every array of a pass stays valid until
the next pass through the same workspace; :func:`taylor_output` writes
the same state buffers as :func:`taylor_forward`.

No row of a state or adjoint depends on another row, so
:func:`taylor_forward` and :func:`taylor_backward` run over two fixed,
contiguous halves of the batch (:meth:`Workspace.split`).  Each half
writes its row slice of the full-batch arrays (the (N, S, h) states and
adjoints, or the (N, h) factors), so every state and adjoint stays one
array or one set of factor arrays for its consumers, bit-identical to one pass over
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

from .network import ActivationDerivs, Parameters, tanh_derivs, tanh_higher_derivs

__all__ = [
    "Workspace",
    "OperatorCoeffs",
    "TaylorOutput",
    "FactoredState",
    "FactoredAdjoint",
    "taylor_forward",
    "taylor_output",
    "taylor_backward",
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
        cut = _cut(n)
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


def _cut(n: int) -> int:
    """The first row of half 1 of a :meth:`Workspace.split` over ``n`` rows."""
    return n if n < 4 else (n + 1) // 2


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
    """Symmetric coefficient matrix c of the operator sum_ij c_ij d^2/dx_i dx_j.

    Non-finite entries are refused before the symmetry test, in which a NaN
    would compare as false and pass.
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"coefficients must be square, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficient matrix has non-finite entries")
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

    def apply(self, g) -> np.ndarray:
        """Contract the coefficients over the derivative axis of a (N, d, h) stack.

        Diagonal coefficient matrices (every catalog operator) reduce to an
        elementwise scale, avoiding a batched matrix product over N tiny
        matrices.  The identity (the Laplacian) returns ``g`` itself and
        any other matrix a new array, so callers only read the result.
        """
        if self.is_identity:
            return g
        if self._diag is not None:
            return g * self._diag[None, :, None]
        d = self.dim
        n, _, h = g.shape
        flat = g.transpose(1, 0, 2).reshape(d, n * h)
        return (self.c @ flat).reshape(d, n, h).transpose(1, 0, 2)

    def contracted_columns(self, g, out=None):
        """The pairs ``(i, (c g)_i)`` of a (d, h) or (N, d, h) stack g, one at a time.

        Only the columns i that c does not zero out are visited.  A
        diagonal c (every catalog operator) passes column i on unchanged
        where c_ii is 1 and scales it otherwise, and any other c sums row i
        of c over g's columns; a per-sample column is written into ``out``
        (N, h) when it is given, so the product c g of a per-sample g is
        never formed whole.  A column is valid until the next is taken.
        """
        if self._diag is None and g.ndim == 2:
            cg = self.apply(g[None])[0]
            yield from enumerate(cg)
            return
        if self._diag is None:
            for i in range(self.dim):
                yield i, np.einsum("j,njh->nh", self.c[i], g, out=out)
            return
        for i in np.flatnonzero(self._diag):
            column = g[..., i, :]
            if self._diag[i] != 1.0:
                column = np.multiply(column, self._diag[i], out=None if g.ndim == 2 else out)
            yield i, column

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


@dataclass(frozen=True, eq=False)
class FactoredState:
    """A hidden activation's (N, S, h) output state, as (N, h) factors over its pre-activation.

    Its value column is ``value`` (s0), its derivative column i is
    ``slope * columns[..., i, :]`` (s1 times derivative column i of the
    pre-activation) and its operator column is ``operator``
    (s2 * quad + s1 * ell).  ``columns`` is W0^T (d, h1), shared by every
    sample, for the first activation, and a view of the pre-activation's
    (N, d, h) derivative block for a later one.  ``shape`` and ``ndim`` are
    those of the array it stands for, indexing takes samples, as on that
    array, and ``nbytes`` counts the three factors alone: the columns belong
    to the parameters or to the pre-activation's state.
    """

    value: np.ndarray     # (N, h)
    slope: np.ndarray     # (N, h)
    operator: np.ndarray  # (N, h)
    columns: np.ndarray   # (d, h1) shared, or (N, d, h) per sample

    ndim = 3

    @property
    def shape(self) -> tuple:
        return (self.value.shape[0], self.columns.shape[-2] + 2, self.value.shape[1])

    @property
    def shared(self) -> bool:
        """Whether the derivative columns are W0^T for every sample."""
        return self.columns.ndim == 2

    @property
    def nbytes(self) -> int:
        return self.value.nbytes + self.slope.nbytes + self.operator.nbytes

    def __getitem__(self, rows) -> "FactoredState":
        columns = self.columns if self.shared else self.columns[rows]
        return FactoredState(self.value[rows], self.slope[rows], self.operator[rows], columns)

    def derivative_columns(self):
        """The derivative columns ``slope * columns[..., i, :]``, i = 0..d-1, in turn.

        Each is written into one (N, h) array that the next overwrites.
        """
        column = np.empty(self.value.shape)
        for i in range(self.columns.shape[-2]):
            yield np.multiply(self.slope, self.columns[..., i, :], out=column)


@dataclass(frozen=True, eq=False)
class FactoredAdjoint:
    """The last hidden layer's (N, S, h) output adjoint, as (N, h) factors over the activation's columns.

    Its value column is ``value`` (v), its derivative column i is
    ``p_i a + beta * (c G)_i`` with p = ``grad`` (the gradient columns of
    ``seeds``), a = ``slope``, beta = ``curvature``, c the coefficients
    ``coeffs`` and G_i derivative column i of the last activation's
    incoming columns ``columns``, and its operator column is ``l_bar *
    slope`` with l_bar the last column of ``seeds``.  ``columns`` is W0^T
    (d, h1), shared by every sample, in a net with one hidden layer, and a
    view of the last pre-activation's (N, d, h) derivative block in a
    deeper one.  ``shape`` is that of the array it stands for, and
    indexing takes samples, as on that array.
    """

    value: np.ndarray      # (N, h)
    slope: np.ndarray      # (N, h)
    curvature: np.ndarray  # (N, h)
    seeds: np.ndarray      # (N, d + 2)
    columns: np.ndarray    # (d, h1) shared, or (N, d, h) per sample
    coeffs: OperatorCoeffs

    @property
    def shape(self) -> tuple:
        return (self.value.shape[0], self.seeds.shape[1], self.value.shape[1])

    @property
    def shared(self) -> bool:
        """Whether the columns are W0^T for every sample."""
        return self.columns.ndim == 2

    @property
    def grad(self) -> np.ndarray:
        return self.seeds[:, 1:-1]

    @property
    def m(self) -> np.ndarray:
        """M = C W0^T (d, h1) of shared columns, so that the derivative block is ``p a^T + M diag(beta)``."""
        return self.coeffs.apply(self.columns[None])[0]

    def __getitem__(self, rows) -> "FactoredAdjoint":
        columns = self.columns if self.shared else self.columns[rows]
        return FactoredAdjoint(
            self.value[rows], self.slope[rows], self.curvature[rows], self.seeds[rows], columns, self.coeffs
        )

    def curvature_columns(self, weights=None, out=None):
        """The pairs ``(i, beta * (c G)_i)`` of the columns i that c does not zero out, in turn.

        ``weights`` (N,) scale the samples (None: none).  c is applied one
        column at a time (:meth:`OperatorCoeffs.contracted_columns`), and
        each (N, h) column is written into ``out`` (a new array when None),
        which the next overwrites.
        """
        out = np.empty(self.value.shape) if out is None else out
        beta = self.curvature if weights is None else weights[:, None] * self.curvature
        for i, cg in self.coeffs.contracted_columns(self.columns, out=out):
            yield i, np.multiply(beta, cg, out=out)


def _linear_input_index(layer: int) -> int:
    """Index into the forward states list of linear layer ``layer``'s input."""
    return 2 * layer


def _linear_output_index(layer: int) -> int:
    """Index into the forward states list of linear layer ``layer``'s output (the head's is not kept)."""
    return 2 * layer + 1


def _first_quadratic(coeffs: OperatorCoeffs, w0) -> np.ndarray:
    """``q_k = sum_ij c_ij W0[k, i] W0[k, j]`` (h1,), the first activation's quadratic term.

    Its incoming derivative columns are W0^T for every sample, so q is
    their quadratic term, formed as ``sum_i (M * W0^T)_i`` with M = C W0^T.
    """
    m = coeffs.apply(w0.T[None])[0]
    return np.sum(m * w0.T, axis=0)


def _first_products(params: Parameters, coeffs: OperatorCoeffs) -> tuple:
    """The parameter-only products of a forward pass, formed once per pass: ``(q, K)``.

    q is the first activation's quadratic term (:func:`_first_quadratic`)
    and, for a net with two or more hidden layers, K (h1, d h2) with
    ``K[a, (i, b)] = W0[a, i] W1[b, a]`` maps the first activation's slope
    to the second linear layer's derivative block (:func:`_linear`).
    """
    w0 = params.weights[0]
    q = _first_quadratic(coeffs, w0)
    if params.n_linear <= 2:
        return q, None
    return q, (w0[:, :, None] * params.weights[1].T[:, None, :]).reshape(w0.shape[0], -1)


def _quadratic_term(coeffs: OperatorCoeffs, g, workspace) -> np.ndarray:
    """``sum_ij c_ij g_i g_j`` per (sample, unit) of an (N, d, h) stack, as ``sum_i (c g)_i g_i``.

    The sum is the workspace's (N, h) array ``("temp", 0)``; ``("temp", 1)``
    holds each product.
    """
    shape = (g.shape[0], g.shape[2])
    quad = workspace.array(shape, "temp", 0)
    if coeffs.is_identity:
        return np.einsum("nih,nih->nh", g, g, out=quad)
    quad[...] = 0.0
    product = workspace.array(shape, "temp", 1)
    for i, cg in coeffs.contracted_columns(g, out=product):
        quad += np.multiply(cg, g[:, i, :], out=product)
    return quad


def _reverse_derivs(s0, s1, workspace: Workspace) -> ActivationDerivs:
    """tanh's derivatives s0..s3 for the reverse pass, from the activation's value s0 and slope s1.

    s2 and s3 follow the identities of :func:`tanh_derivs`
    (:func:`pinnopt.network.tanh_higher_derivs`) and are written into the
    workspace's ``("tanh")`` array, which a one-hidden-layer net's
    :func:`taylor_output` uses for s0..s2.
    """
    return tanh_higher_derivs(s0, s1, 3, workspace.array((2,) + s0.shape, "tanh"))


def _incoming_columns(pre, w0t, d: int) -> tuple:
    """Incoming columns ``(value, g, ell)`` of the activation after ``pre``.

    A two-dimensional ``pre`` is the first pre-activation: its derivative
    columns are ``w0t`` = W0^T (d, h1) for every sample and its operator
    column is zero, returned as None.  Otherwise they are the column slices
    of the (N, S, h) state ``pre``.
    """
    if pre.ndim == 2:
        return pre, w0t, None
    return pre[:, 0, :], pre[:, 1 : d + 1, :], pre[:, d + 1, :]


def _activation(pre, w0t, q, coeffs: OperatorCoeffs, workspace, layer) -> FactoredState:
    """The activation after ``pre`` as a :class:`FactoredState`, in the workspace's state array ``layer``.

    Value and derivative columns follow the chain rule; the operator column
    picks up the quadratic first-derivative term:

        L z_out = s1 * L z_in + sum_ij c_ij * s2 * dz_i * dz_j

    so over the incoming columns (z, g, ell) of :func:`_incoming_columns`
    the state is ``(s0, s1, s2 * quad + s1 * ell)`` with derivative columns
    g.  The three factors are the rows of one (N, 3, h) array: tanh_derivs
    writes s0, s1 and s2 there, and s2 becomes the operator column in place.
    ``q`` is the quadratic term of the first activation (:func:`_first_quadratic`).
    """
    value, g, ell = _incoming_columns(pre, w0t, coeffs.dim)
    n, h = value.shape
    s = tanh_derivs(value, 2, workspace.array((n, 3, h), "state", layer).transpose(1, 0, 2))
    if g.ndim == 2:
        s.s2[...] *= q
    else:
        s.s2[...] *= _quadratic_term(coeffs, g, workspace)
        s.s2[...] += np.multiply(s.s1, ell, out=workspace.array((n, h), "temp", 0))
    return FactoredState(s.s0, s.s1, s.s2, g)


def _linear(w, b, z: FactoredState, k, workspace, layer) -> np.ndarray:
    """Linear layer on a factored state: its (N, S, h_out) output, the workspace's state array ``layer``.

    Every column is multiplied by W, and the bias hits the value column.
    The derivative block is formed without the state's derivative columns
    when they are W0^T: it is then the one product ``s1 K`` (K of
    :func:`_first_products`) written into an (N, d h_out) view of the
    output.  Otherwise each derivative column is formed in turn, an (N, h)
    array, and multiplied.
    """
    n, s, _ = z.shape
    d, q = s - 2, w.shape[0]
    out = workspace.array((n, s, q), "state", layer)
    np.matmul(z.value, w.T, out=out[:, 0, :])
    out[:, 0, :] += b
    if z.shared:
        np.matmul(z.slope, k, out=out[:, 1 : d + 1, :].reshape(n, d * q))
    else:
        for i, column in enumerate(z.derivative_columns()):
            np.matmul(column, w.T, out=out[:, 1 + i, :])
    np.matmul(z.operator, w.T, out=out[:, d + 1, :])
    return out


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


def _n_states(params: Parameters) -> int:
    """Length of the forward states list: the points and the first pre-activation for a net
    with at most one hidden layer, else also one entry per later sequential layer but the head."""
    return 2 if params.n_linear <= 2 else 2 * params.n_linear - 1


def _state_records(params: Parameters, n: int, workspace: Workspace) -> dict:
    """The workspace's forward state arrays 1, 2, ... for ``n`` points, as :meth:`Workspace.split` records.

    Keyed ``("state", i)``: the (N, h1) first pre-activation, then, for a
    net with two or more hidden layers, the (N, 3, h) factors of each
    activation (even i) and the (N, S, h) pre-activation of each later
    linear layer but the head (odd i).  Each half of the split
    :func:`taylor_forward` writes its rows of these full-batch arrays
    instead of temporaries of its own.  Each buffer is sized to also hold
    the two halves' temporaries under its key of a split over the same
    rows (:meth:`_Half.array`: twice half 0's), so a split
    :func:`taylor_output` through the workspace, such as the line
    search's, writes into it without growing it.
    """
    s = params.input_dim + 2
    widths = params.widths
    tails = [(widths[1],)] + [(s if i % 2 else 3, widths[(i + 1) // 2]) for i in range(2, _n_states(params))]
    records = {}
    for i, tail in enumerate(tails, 1):
        row = math.prod(tail)
        records[("state", i)] = workspace._buffer(2 * _cut(n) * row, "state", i)[: n * row].reshape((n,) + tail)
    return records


def _forward_states(params: Parameters, x, records: dict) -> list:
    """The states list of :func:`taylor_forward` over its full-batch state arrays ``records``."""
    d = x.shape[1]
    states = [x]
    for (_, i), array in records.items():
        if i % 2:
            states.append(array)
        else:
            columns = params.weights[0].T if i == 2 else states[-1][:, 1 : d + 1, :]
            states.append(FactoredState(array[:, 0, :], array[:, 1, :], array[:, 2, :], columns))
    return states


def taylor_forward(params: Parameters, x, coeffs: OperatorCoeffs, workspace=None) -> tuple:
    """Propagate value, gradient and operator columns through the net.

    Returns ``(states, out)``.  ``states[0]`` is the (N, d) array of points
    x and ``states[1]`` the (N, h1) pre-activation ``x W0^T + b0``, the
    value column of the first linear layer's output (its other columns are
    the same for every sample; see the module docstring).  A net with at
    most one hidden layer keeps no other state: :func:`taylor_backward`
    works from the pre-activation alone.  For a deeper net the entries
    alternate from there: the :class:`FactoredState` of each activation,
    then the full (N, S, h) output state of the next linear layer, up to
    the last activation's; the head's output state is not kept.  ``out``
    is the :class:`TaylorOutput` triple of the scalar network output,
    from the fused head of :func:`taylor_output`.

    The states live in ``workspace`` (a fresh one when None) and stay valid
    until the next :func:`taylor_forward` or :func:`taylor_output` through
    the same workspace.  Each half of :meth:`Workspace.split` writes its
    rows of every state; no row depends on another.
    """
    x = _check_points(params, x, coeffs)
    if workspace is None:
        workspace = Workspace()
    records = _state_records(params, x.shape[0], workspace)
    q, k = _first_products(params, coeffs)
    halves = workspace.split(x.shape[0], lambda half: _output(params, x[half.rows], coeffs, half, q, k), records)
    fields = ("value", "gradient", "operator")
    out = TaylorOutput(*(np.concatenate([getattr(h, f) for h in halves]) for f in fields))
    return _forward_states(params, x, records), out


def taylor_output(params: Parameters, x, coeffs: OperatorCoeffs, workspace=None) -> TaylorOutput:
    """The output triple of the net at the points x, through the fused head.

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
    return _output(params, x, coeffs, Workspace() if workspace is None else workspace, *_first_products(params, coeffs))


def _output(params: Parameters, x, coeffs: OperatorCoeffs, workspace, q, k) -> TaylorOutput:
    """The body of :func:`taylor_output` on checked points, with the products of :func:`_first_products`."""
    w0 = params.weights[0]
    pre = np.matmul(x, w0.T, out=workspace.array((x.shape[0], w0.shape[0]), "state", 1))
    pre += params.biases[0]
    if params.n_linear == 1:
        return _linear_net_output(x, pre, w0)
    w = params.weights[-1][0]
    b = params.biases[-1][0]
    if params.n_linear == 2:
        # (N, h1) matrix products instead of a broadcast over W0^T
        s = tanh_derivs(pre, 2, workspace.array((3,) + pre.shape, "tanh"))
        return TaylorOutput(value=s.s0 @ w + b, gradient=s.s1 @ (w[:, None] * w0), operator=s.s2 @ (q * w))
    z = _activation(pre, w0.T, q, coeffs, workspace, _linear_input_index(1))
    for l in range(1, params.n_linear - 1):
        pre = _linear(params.weights[l], params.biases[l], z, k, workspace, _linear_output_index(l))
        z = _activation(pre, w0.T, q, coeffs, workspace, _linear_input_index(l + 1))
    gradient = np.einsum("nih,nh->ni", z.columns, z.slope * w)
    return TaylorOutput(value=z.value @ w + b, gradient=gradient, operator=z.operator @ w)


def _activation_backward(
    derivs: ActivationDerivs, g, ell, g_out, coeffs: OperatorCoeffs, workspace, q=None
) -> np.ndarray:
    """Adjoint of :func:`_activation`, in place.

    With incoming columns (z, g_i, ell), ``derivs`` the tanh derivatives of
    z up to third order, and output adjoints (vb, gb_i, lb):

        lb_in   = s1 * lb
        gb_in,i = s1 * gb_i + 2 sum_j c_ij s2 * g_j * lb
        vb_in   = s1 * vb + sum_i s2 * g_i * gb_i
                  + s2 * ell * lb + s3 * (sum_ij c_ij g_i g_j) * lb

    The s3 term is the derivative of the quadratic part w.r.t. the
    pre-activation value, which is why third derivatives are required.
    ``g`` is W0^T (d, h1) for every sample, with ``q`` its quadratic term,
    or an (N, d, h) stack, and ``ell`` None is a zero operator column
    (:func:`_incoming_columns`).  The sums over i run column by column
    (:meth:`OperatorCoeffs.contracted_columns`), so no (N, d, h)
    temporary is formed; the (N, h) temporaries
    are the workspace's ``("temp", k)`` arrays.  ``g_out`` is overwritten
    with the input adjoint and returned: the value column first and the
    operator column last, because each reads the incoming columns after it.
    """
    d = coeffs.dim
    s = derivs
    vb = g_out[:, 0, :]
    gb = g_out[:, 1 : d + 1, :]
    lb = g_out[:, d + 1, :]
    shape = vb.shape
    term = workspace.array(shape, "temp", 2)

    vb *= s.s1
    vb += np.multiply(np.einsum("ih,nih->nh" if g.ndim == 2 else "nih,nih->nh", g, gb, out=term), s.s2, out=term)
    if ell is not None:
        np.multiply(s.s2, ell, out=term)
        vb += np.multiply(term, lb, out=term)
    np.multiply(s.s3, q if g.ndim == 2 else _quadratic_term(coeffs, g, workspace), out=term)
    vb += np.multiply(term, lb, out=term)
    lb_s2 = np.multiply(s.s2, 2.0, out=workspace.array(shape, "temp", 3))
    lb_s2 *= lb
    gb *= s.s1[:, None, :]
    for i, cg in coeffs.contracted_columns(g, out=term):
        gb[:, i, :] += np.multiply(lb_s2, cg, out=term)
    lb *= s.s1
    return g_out


def taylor_backward(
    params: Parameters, states: list, seeds, coeffs: OperatorCoeffs, workspace=None
) -> list:
    """Reverse pass through the states produced by :func:`taylor_forward`.

    ``seeds`` has shape (N, S) and holds, per sample, the adjoint of the
    output triple in column layout ``[u_bar, grad_bar..., op_bar]``.
    Returns the interior record that :mod:`pinnopt.curvature` reads: entry
    l is the pair (input of linear layer l, (N, S, h) adjoint of its
    output state in full column layout).  Layer 0's input is the (N, d)
    array of points and its adjoint that of the complete output state,
    although the forward pass kept only its value column.  Every other
    layer's input is the :class:`FactoredState` of the activation before
    it.  The last hidden layer's adjoint is a :class:`FactoredAdjoint`
    (:func:`_last_adjoint`; module docstring) and the head's a view of the
    seeds.

    Every other adjoint l is formed as ``g @ W_{l+1}`` in the workspace's
    adjoint array of index l (a fresh workspace when None), straight from
    the factors when g is the last hidden one (:func:`_adjoint_product`),
    and taken through the activation in place, with s0 and s1 read from
    the activation's kept state; it stays valid until the next reverse pass
    through the same workspace.  Each half of :meth:`Workspace.split`
    writes its rows of every adjoint.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    d = coeffs.dim
    n = states[0].shape[0]
    if seeds.shape != (n, d + 2):
        raise ValueError(f"seeds must have shape ({n}, {d + 2}), got {seeds.shape}")
    if len(states) != _n_states(params):
        raise ValueError("states do not match the network layout")
    if params.n_linear == 1:
        return [(states[0], seeds[:, :, None])]
    if workspace is None:
        workspace = Workspace()
    w0t = params.weights[0].T
    q = _first_quadratic(coeffs, params.weights[0])
    last, state, last_rows = _last_adjoint(params, states, seeds, coeffs, workspace, q)
    adjoints = [workspace.array((n, d + 2, h), "adjoint", l) for l, h in enumerate(params.widths[1:-2])]

    def backward_rows(half):
        g = last_rows(half)
        for l in reversed(range(1, params.n_linear - 1)):
            adjoint = adjoints[l - 1][half.rows]
            _adjoint_product(g, params.weights[l], adjoint, half)
            z = states[_linear_input_index(l)][half.rows]
            _, g_in, ell = _incoming_columns(states[_linear_output_index(l - 1)][half.rows], w0t, d)
            _activation_backward(_reverse_derivs(z.value, z.slope, half), g_in, ell, adjoint, coeffs, half, q)
            g = adjoint

    workspace.split(n, backward_rows)
    inputs = states[0::2][: params.n_linear - 1] + [state]
    return list(zip(inputs, adjoints + [last, seeds[:, :, None]]))


def _last_adjoint(params: Parameters, states: list, seeds, coeffs: OperatorCoeffs, workspace, q) -> tuple:
    """The last hidden layer's output adjoint, factored, and the head's input state.

    The head's adjoint ``seeds (x) w`` taken through the last activation,
    whose incoming columns are (z, G, ell) with quadratic term quad, is
    fixed by the tanh derivatives s0..s3 of z, the head's weight row w and
    the seeds ``(u_bar, p, l_bar)`` (module docstring):

        v    = w * (u_bar s1 + s2 * (sum_i p_i G_i) + l_bar (s2 * ell + s3 * quad))
        a    = s1 * w,   beta = 2 l_bar s2 * w

    With one hidden layer G is W0^T, ell is zero and quad is ``q``
    (:func:`_first_quadratic`); the head's input state ``(s0, s1, s2 * q)``
    is formed here, with s0 and s1 straight from the pre-activation.  A
    deeper net's head input is the forward pass's last state, whose s0 and
    s1 are read, and G is a view of the last pre-activation.  Returns ``(FactoredAdjoint, FactoredState,
    rows)``: ``rows(half)`` writes a half's rows of the workspace's (N, h)
    factor arrays and returns the adjoint's rows.
    """
    n, d, h = seeds.shape[0], coeffs.dim, params.widths[-2]
    w = params.weights[-1][0]
    w0t = params.weights[0].T
    pre = states[_linear_output_index(params.n_linear - 2)]
    value, slope, curvature = (workspace.array((n, h), "factor", name) for name in ("value", "slope", "curvature"))
    if pre.ndim == 2:
        s01 = workspace.array((2, n, h), "factor", "state")
        state = FactoredState(s01[0], s01[1], workspace.array((n, h), "factor", "state_operator"), w0t)
    else:
        state = states[_linear_input_index(params.n_linear - 1)]
    adjoint = FactoredAdjoint(value, slope, curvature, seeds, _incoming_columns(pre, w0t, d)[1], coeffs)

    def rows(half):
        r = half.rows
        if pre.ndim == 2:
            s = tanh_derivs(pre[r], 1, s01[:, r])
            s = _reverse_derivs(s.s0, s.s1, half)
            np.multiply(s.s2, q, out=state.operator[r])
        else:
            s = _reverse_derivs(state.value[r], state.slope[r], half)
        _, g, ell = _incoming_columns(pre[r], w0t, d)
        u_bar, p, l_bar = seeds[r, :1], seeds[r, 1 : d + 1], seeds[r, d + 1 :]
        np.multiply(s.s1, w, out=slope[r])
        np.multiply(s.s2, w, out=curvature[r])
        curvature[r] *= 2.0 * l_bar
        v = np.matmul(p, g, out=value[r]) if g.ndim == 2 else np.matmul(p[:, None, :], g, out=value[r, None])[:, 0]
        v *= s.s2
        v += u_bar * s.s1
        if ell is not None:
            l_s2 = np.multiply(s.s2, ell, out=s.s2)
            l_s2 *= l_bar
            v += l_s2
        l_s3 = np.multiply(s.s3, l_bar, out=s.s3)
        l_s3 *= q if g.ndim == 2 else _quadratic_term(coeffs, g, half)
        v += l_s3
        v *= w
        return adjoint[r]

    return adjoint, state, rows


def _adjoint_product(g, w, out, workspace) -> None:
    """``g W`` of an output adjoint g, written into ``out`` (N, S, h_in).

    A full g is one 2-D product over (N S, .) views.  A
    :class:`FactoredAdjoint` is multiplied through its factors, with
    aW = a W formed once:

        value column v W,   derivative column i  p_i aW + (beta * (c G)_i) W,
        operator column l_bar aW

    c applied one column at a time, so that no full-size array but ``out``
    is written; the (N, h) temporaries are the workspace's ``("temp", k)``
    arrays, k = 0..2.
    """
    n, s, h_in = out.shape
    if not isinstance(g, FactoredAdjoint):
        # 2-D product over (n S, .) views (C-contiguous rows, so out= writes the adjoint):
        # a 3-D matmul rounds differently for the transposed-view W once w.shape[0] >= 32
        np.matmul(g.reshape(-1, w.shape[0]), w, out=out.reshape(-1, h_in))
        return
    d = s - 2
    np.matmul(g.value, w, out=out[:, 0, :])
    aw = np.matmul(g.slope, w, out=workspace.array((n, h_in), "temp", 0))
    np.multiply(g.grad[:, :, None], aw[:, None, :], out=out[:, 1 : d + 1, :])
    np.multiply(g.seeds[:, d + 1 :], aw, out=out[:, d + 1, :])
    product = workspace.array((n, h_in), "temp", 2)
    for i, column in g.curvature_columns(out=workspace.array(g.value.shape, "temp", 1)):
        out[:, 1 + i, :] += np.matmul(column, w, out=product)
