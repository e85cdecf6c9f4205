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
materialised in this layout.  The input state :func:`initial_state`, kept
as the reference for tests, is the same for every point
apart from its value column (x, then the unit vectors e_i, then 0), so the
first linear layer's derivative columns are the columns of W0^T for every
sample and its operator column is zero.  The forward pass therefore keeps
only the points x (N, d) and the first pre-activation x W0^T + b0 (N, h1),
and builds the first activation's state in closed form:

    derivative columns : s1 * W0^T
    operator column    : s2 * q,   q_k = sum_ij c_ij W0[k, i] W0[k, j]

The reverse pass propagates adjoints with the same column layout and
yields parameter gradients of any linear combination of (u, grad u, L u).
It stops at the first linear layer's output adjoint: the first layer's
``[dW | db]`` is ``g_0^T [x 1]`` plus the batch sum of the derivative-column
block, and no adjoint of the input is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ActivationDerivs, Parameters, activation_derivs

__all__ = [
    "OperatorCoeffs",
    "TaylorOutput",
    "TaylorGrads",
    "initial_state",
    "param_grad_matrix",
    "taylor_forward_linear",
    "taylor_forward_activation",
    "taylor_forward",
    "taylor_backward",
    "linear_input_index",
    "linear_output_index",
]


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

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def apply(self, g) -> np.ndarray:
        """Contract the coefficients over the derivative axis of a (N, d, h) stack.

        Diagonal coefficient matrices (every catalog operator) reduce to an
        elementwise scale, avoiding a batched matrix product over N tiny
        matrices.
        """
        if self._diag is not None:
            return g * self._diag[None, :, None]
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


@dataclass
class TaylorGrads:
    """Result of the reverse pass.

    ``layer_grads[i]`` is the (N, S, h) adjoint of the i-th entry of the
    forward ``states`` list, in full column layout for every i >= 1; for
    ``states[1]`` it is the adjoint of the first linear layer's complete
    output state, although the forward pass kept only its value column.
    ``layer_grads[0]``, the adjoint of the input, is not computed and stays
    None.  ``weight_grads`` / ``bias_grads`` hold parameter gradients per
    linear layer, summed over the batch with the per-sample seeds baked in.
    """

    layer_grads: list
    weight_grads: list
    bias_grads: list


def linear_input_index(layer: int) -> int:
    """Index into the forward states list of linear layer ``layer``'s input."""
    return 2 * layer


def linear_output_index(layer: int) -> int:
    """Index into the forward states list of linear layer ``layer``'s output."""
    return 2 * layer + 1


def initial_state(x) -> np.ndarray:
    """Input-layer state: value column x, derivative columns e_i, operator 0."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    z = np.zeros((n, d + 2, d))
    z[:, 0, :] = x
    z[:, 1 : d + 1, :] = np.eye(d)
    return z


def param_grad_matrix(z_in, g, weights=None) -> np.ndarray:
    """Batch-summed ``[dW | db]`` of one linear layer, ``sum_n w_n sum_s g_ns zhat_ns^T``.

    ``z_in`` is the layer's input state and ``g`` the (N, S, h_out) adjoint
    of its output; ``zhat`` appends the bias entry (1 in the value column,
    0 elsewhere).  A two-dimensional ``z_in`` holds the points x and stands
    for :func:`initial_state` ``(x)``, whose column sum per sample is
    ``g_n0 [x_n 1]^T + [G_n^T 0]`` with ``G_n`` the derivative-column block
    of ``g_n``.  ``weights`` (N,) scale the samples; None means all ones.
    """
    if weights is not None:
        g = g * weights[:, None, None]
    n, s, q = g.shape
    if z_in.ndim == 2:
        d = z_in.shape[1]
        m = np.empty((q, d + 1))
        m[:, :d] = g[:, 0, :].T @ z_in + g[:, 1 : d + 1, :].sum(axis=0).T
    else:
        d = z_in.shape[2]
        m = np.empty((q, d + 1))
        m[:, :d] = g.reshape(n * s, q).T @ z_in.reshape(n * s, d)
    m[:, d] = g[:, 0, :].sum(axis=0)
    return m


def _first_layer_constants(w0, coeffs: OperatorCoeffs) -> tuple:
    """Sample-independent columns of the first linear layer's output state.

    Returns ``(w0t, cw0t, q)``: the derivative columns W0^T (d, h1), their
    contraction with the coefficients (c W0^T), and the quadratic term
    ``q_k = sum_ij c_ij W0[k, i] W0[k, j]`` that the first activation's
    operator column picks up.
    """
    w0t = np.ascontiguousarray(w0.T)
    cw0t = coeffs.apply(w0t[None])[0]
    q = np.sum(cw0t * w0t, axis=0)
    return w0t, cw0t, q


def _first_activation(derivs: ActivationDerivs, w0t, q) -> np.ndarray:
    """State after the first activation, from the pre-activation derivatives alone.

    The incoming derivative columns are W0^T for every sample and the
    incoming operator column is zero, so :func:`taylor_forward_activation`
    reduces to ``(s0, s1 * W0^T, s2 * q)``.
    """
    n, h = derivs.s0.shape
    d = w0t.shape[0]
    z_out = np.empty((n, d + 2, h))
    z_out[:, 0, :] = derivs.s0
    np.multiply(derivs.s1[:, None, :], w0t, out=z_out[:, 1 : d + 1, :])
    np.multiply(derivs.s2, q, out=z_out[:, d + 1, :])
    return z_out


def _apply_linear(w, z_in):
    n, s, h_in = z_in.shape
    flat = z_in.reshape(n * s, h_in) @ w.T
    return flat.reshape(n, s, w.shape[0])


def taylor_forward_linear(w, b, z_in) -> np.ndarray:
    """Linear layer: every column is multiplied by W, bias hits the value column."""
    w = np.asarray(w, dtype=np.float64)
    z_in = np.asarray(z_in, dtype=np.float64)
    if z_in.shape[2] != w.shape[1]:
        raise ValueError(f"state width {z_in.shape[2]} does not match weight {w.shape}")
    z_out = _apply_linear(w, z_in)
    z_out[:, 0, :] += b
    return z_out


def taylor_forward_activation(derivs: ActivationDerivs, z_in, coeffs: OperatorCoeffs) -> np.ndarray:
    """Element-wise activation layer.

    Value and derivative columns follow the chain rule; the operator column
    picks up the quadratic first-derivative term:

        L z_out = s1 * L z_in + sum_ij c_ij * s2 * dz_i * dz_j
    """
    z_in = np.asarray(z_in, dtype=np.float64)
    d = coeffs.dim
    if z_in.shape[1] != d + 2:
        raise ValueError(f"state has {z_in.shape[1]} columns, operator expects {d + 2}")
    g = z_in[:, 1 : d + 1, :]
    z_out = np.empty_like(z_in)
    z_out[:, 0, :] = derivs.s0
    z_out[:, 1 : d + 1, :] = derivs.s1[:, None, :] * g
    quad = np.sum(coeffs.apply(g) * g, axis=1)
    z_out[:, d + 1, :] = derivs.s1 * z_in[:, d + 1, :] + derivs.s2 * quad
    return z_out


def taylor_forward(params: Parameters, x, coeffs: OperatorCoeffs) -> tuple:
    """Propagate value, gradient and operator columns through the net.

    Returns ``(states, out)``.  ``states[0]`` is the (N, d) array of points
    x and ``states[1]`` the (N, h1) pre-activation ``x W0^T + b0``, the
    value column of the first linear layer's output (its other columns are
    the same for every sample; see the module docstring).  Every further
    entry is the full (N, S, h) output state of one sequential layer,
    activation and linear interleaved.  ``out`` is the
    :class:`TaylorOutput` triple of the scalar network output.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a batch of points with shape (N, d)")
    d = x.shape[1]
    if d != params.input_dim:
        raise ValueError(f"input dim {d} does not match network input {params.input_dim}")
    if coeffs.dim != d:
        raise ValueError(f"operator dim {coeffs.dim} does not match input dim {d}")

    w0 = params.weights[0]
    pre = x @ w0.T + params.biases[0]
    states = [x, pre]
    if params.n_linear == 1:
        return states, TaylorOutput(
            value=pre[:, 0].copy(),
            gradient=np.repeat(w0, x.shape[0], axis=0),
            operator=np.zeros(x.shape[0]),
        )
    w0t, _, q = _first_layer_constants(w0, coeffs)
    z = _first_activation(activation_derivs(pre, params.activation, order=2), w0t, q)
    states.append(z)
    for l in range(1, params.n_linear):
        z = taylor_forward_linear(params.weights[l], params.biases[l], z)
        states.append(z)
        if l < params.n_linear - 1:
            derivs = activation_derivs(z[:, 0, :], params.activation, order=2)
            z = taylor_forward_activation(derivs, z, coeffs)
            states.append(z)
    out = TaylorOutput(
        value=z[:, 0, 0].copy(),
        gradient=z[:, 1 : d + 1, 0].copy(),
        operator=z[:, d + 1, 0].copy(),
    )
    return states, out


def _activation_backward(z_in, g_out, coeffs: OperatorCoeffs, activation: str) -> np.ndarray:
    """Adjoint of :func:`taylor_forward_activation`.

    With input columns (z, g_i, ell) and output adjoints (vb, gb_i, lb):

        lb_in   = s1 * lb
        gb_in,i = s1 * gb_i + 2 sum_j c_ij s2 * g_j * lb
        vb_in   = s1 * vb + sum_i s2 * g_i * gb_i
                  + s2 * ell * lb + s3 * (sum_ij c_ij g_i g_j) * lb

    The s3 term is the derivative of the quadratic part w.r.t. the
    pre-activation value, which is why third derivatives are required.
    """
    d = coeffs.dim
    s = activation_derivs(z_in[:, 0, :], activation)
    g = z_in[:, 1 : d + 1, :]
    ell = z_in[:, d + 1, :]
    vb = g_out[:, 0, :]
    gb = g_out[:, 1 : d + 1, :]
    lb = g_out[:, d + 1, :]

    cg = coeffs.apply(g)
    quad = np.sum(cg * g, axis=1)

    g_in = np.empty_like(g_out)
    g_in[:, d + 1, :] = s.s1 * lb
    g_in[:, 1 : d + 1, :] = s.s1[:, None, :] * gb + 2.0 * s.s2[:, None, :] * cg * lb[:, None, :]
    g_in[:, 0, :] = (
        s.s1 * vb
        + s.s2 * np.sum(g * gb, axis=1)
        + s.s2 * ell * lb
        + s.s3 * quad * lb
    )
    return g_in


def _first_activation_backward(pre, g_out, consts: tuple, activation: str) -> np.ndarray:
    """Adjoint of :func:`_first_activation`, i.e. :func:`_activation_backward`
    with the incoming derivative columns W0^T and a zero operator column."""
    w0t, cw0t, q = consts
    d = w0t.shape[0]
    s = activation_derivs(pre, activation)
    vb = g_out[:, 0, :]
    gb = g_out[:, 1 : d + 1, :]
    lb = g_out[:, d + 1, :]

    g_in = np.empty_like(g_out)
    np.multiply(s.s1, lb, out=g_in[:, d + 1, :])
    np.multiply(s.s1[:, None, :], gb, out=g_in[:, 1 : d + 1, :])
    g_in[:, 1 : d + 1, :] += (2.0 * s.s2 * lb)[:, None, :] * cw0t
    g_in[:, 0, :] = s.s1 * vb + s.s2 * np.sum(w0t * gb, axis=1) + s.s3 * q * lb
    return g_in


def taylor_backward(params: Parameters, states: list, seeds, coeffs: OperatorCoeffs) -> TaylorGrads:
    """Reverse pass through the states produced by :func:`taylor_forward`.

    ``seeds`` has shape (N, S) and holds, per sample, the adjoint of the
    output triple in column layout ``[u_bar, grad_bar..., op_bar]``.  The
    returned parameter gradients are the batch sums of the seeded
    gradients; per-sample layer adjoints are kept for curvature assembly.
    The pass ends at the first linear layer's output adjoint
    ``layer_grads[1]``; ``layer_grads[0]`` is left None.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    d = coeffs.dim
    n = states[0].shape[0]
    if seeds.shape != (n, d + 2):
        raise ValueError(f"seeds must have shape ({n}, {d + 2}), got {seeds.shape}")
    if len(states) != 2 * params.n_linear:
        raise ValueError("states do not match the network layout")

    layer_grads = [None] * len(states)
    weight_grads = [None] * params.n_linear
    bias_grads = [None] * params.n_linear

    g = seeds[:, :, None]
    for l in reversed(range(params.n_linear)):
        out_idx = linear_output_index(l)
        in_idx = linear_input_index(l)
        layer_grads[out_idx] = g
        m = param_grad_matrix(states[in_idx], g)
        weight_grads[l] = m[:, :-1]
        bias_grads[l] = m[:, -1]
        if l == 0:
            break
        g = np.matmul(g, params.weights[l])
        layer_grads[in_idx] = g
        if l == 1:
            consts = _first_layer_constants(params.weights[0], coeffs)
            g = _first_activation_backward(states[1], g, consts, params.activation)
        else:
            g = _activation_backward(states[in_idx - 1], g, coeffs, params.activation)
    return TaylorGrads(layer_grads, weight_grads, bias_grads)
