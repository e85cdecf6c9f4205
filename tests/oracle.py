"""Independent brute-force references the tests check the engines against.

These deliberately know nothing about the operator-column propagation in
:mod:`pinnopt.taylor`: they only call the single-point :func:`forward` and
do scalar arithmetic, so agreement with the fast engine is evidence, not
tautology.  :func:`initial_state` is the materialised input state that the
engines never form, for checking their closed-form first layer.

:func:`exact_gramian` and :func:`gramian_vec` are the exception: dense
Gauss-Newton references formed from the package's own residual Jacobian
rows (:func:`pinnopt.curvature.residual_jacobian_rows`, which the
finite-difference tests check), for checking the Kronecker factors and
the projected rows that training uses instead.

:func:`params_to_vec` and :func:`vec_to_params` give the flat parameter
vector of the finite-difference checks, and :func:`flatten_mats` the
same flattening of per-layer ``[dW | db]`` matrices, written without
:func:`pinnopt.network.layer_blocks` so that the tests can check it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pinnopt import curvature, network

__all__ = [
    "flatten_mats",
    "params_to_vec",
    "vec_to_params",
    "forward",
    "initial_state",
    "exact_gramian",
    "gramian_vec",
    "FdSpec",
    "fd_gradient",
    "fd_operator",
    "fd_residual_jacobian",
    "rel_error",
]


def flatten_mats(mats: list) -> np.ndarray:
    """Concatenate per-layer ``[W | b]``-shaped matrices, each vectorized column by column."""
    return np.concatenate([np.asarray(m, dtype=np.float64).flatten(order="F") for m in mats])


def params_to_vec(params: network.Parameters) -> np.ndarray:
    """Flatten all parameters in the package-wide convention."""
    return flatten_mats([np.concatenate([w, b[:, None]], axis=1) for w, b in zip(params.weights, params.biases)])


def vec_to_params(vec, template: network.Parameters) -> network.Parameters:
    """Rebuild :class:`Parameters` from a flat vector, shapes from ``template``."""
    vec = np.asarray(vec, dtype=np.float64)
    weights, biases, start = [], [], 0
    for w in template.weights:
        q, p = w.shape[0], w.shape[1] + 1
        m = vec[start : start + p * q].reshape((q, p), order="F")
        weights.append(m[:, :-1].copy())
        biases.append(m[:, -1].copy())
        start += p * q
    if start != vec.size:
        raise ValueError(f"vector of length {vec.size} does not match parameter count {start}")
    return network.Parameters(weights, biases)


def forward(params: network.Parameters, x) -> tuple:
    """Evaluate the net at a single point.

    Returns ``(u, zs)`` where ``zs`` lists the output of every sequential
    layer (linear and tanh layers interleaved) in order.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.input_dim,):
        raise ValueError(f"expected input of shape ({params.input_dim},), got {x.shape}")
    zs = []
    z = x
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = w @ z + b
        zs.append(z)
        if l < params.n_linear - 1:
            z = np.tanh(z)
            zs.append(z)
    return float(z[0]), zs


def initial_state(x) -> np.ndarray:
    """Input-layer state of a batch: value column x, derivative columns e_i, operator 0."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    z = np.zeros((n, d + 2, d))
    z[:, 0, :] = x
    z[:, 1 : d + 1, :] = np.eye(d)
    return z


def exact_gramian(params, batch, problem) -> np.ndarray:
    """Dense Gauss-Newton matrix ``J_int^T J_int / N + J_cond^T J_cond / N_cond`` of the batch."""
    g = np.zeros((params.n_params, params.n_params))
    for rows in curvature.residual_jacobian_rows(params, batch, problem):
        if rows.shape[0]:
            g += rows.T @ rows / rows.shape[0]
    return 0.5 * (g + g.T)


def gramian_vec(params, batch, problem, v) -> np.ndarray:
    """Gramian-vector product of the batch from the dense rows, without damping."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (params.n_params,):
        raise ValueError(f"vector must have length {params.n_params}, got shape {v.shape}")
    rows_int, rows_bnd = curvature.residual_jacobian_rows(params, batch, problem)
    return curvature.gramian_vec_from_rows(rows_int, rows_bnd, v)


@dataclass(frozen=True)
class FdSpec:
    """Central finite-difference step sizes.

    ``step_first`` is used for first derivatives, ``step_second`` for the
    3/4-point second-derivative stencils.
    """

    step_first: float = 1e-6
    step_second: float = 1e-4

    def __post_init__(self):
        if self.step_first <= 0 or self.step_second <= 0:
            raise ValueError("finite-difference steps must be positive")


def rel_error(approx, exact) -> float:
    """Max elementwise error with max(1, |exact|) denominators.

    The floor at 1 keeps near-zero reference entries from blowing up the
    comparison.
    """
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    return float(np.max(np.abs(approx - exact) / np.maximum(1.0, np.abs(exact))))


def fd_gradient(f, x, spec: FdSpec = FdSpec()) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    h = spec.step_first
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def fd_operator(f, x, coeffs, spec: FdSpec = FdSpec()) -> float:
    """Central-difference evaluation of ``sum_ij c_ij d^2 f / dx_i dx_j``.

    Diagonal terms use the 3-point stencil, mixed terms the 4-point
    stencil; symmetric pairs (i, j) and (j, i) are folded together.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(coeffs.c, dtype=np.float64)
    h = spec.step_second
    total = 0.0
    f0 = None
    for i in range(x.size):
        if c[i, i] != 0.0:
            if f0 is None:
                f0 = f(x)
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            total += c[i, i] * (f(xp) - 2.0 * f0 + f(xm)) / (h * h)
        for j in range(i + 1, x.size):
            cij = c[i, j] + c[j, i]
            if cij == 0.0:
                continue
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[i] += h
            xpp[j] += h
            xpm[i] += h
            xpm[j] -= h
            xmp[i] -= h
            xmp[j] += h
            xmm[i] -= h
            xmm[j] -= h
            total += cij * (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * h * h)
    return float(total)


def _residual_from_forward(problem, params, x, spec: FdSpec) -> float:
    """Interior residual at one point with all network derivatives from stencils."""

    def f(y):
        return forward(params, y)[0]

    u = f(x)
    grad = fd_gradient(f, x, spec)
    op = fd_operator(f, x, problem.coeffs, spec)
    return float(
        problem.residual(x[None, :], problem.source(x[None, :]), np.array([u]), grad[None, :], np.array([op]))[0]
    )


# Nested differentiation: the stencil noise of the inner second-derivative
# evaluation (~eps / step_second^2) is amplified by 1 / param_step, so the
# inner step is widened and the parameter step kept well above the
# first-order default.
RESIDUAL_JACOBIAN_SPEC = FdSpec(step_first=1e-6, step_second=1e-3)
RESIDUAL_JACOBIAN_PARAM_STEP = 4e-3


def fd_residual_jacobian(
    problem,
    params,
    point,
    spec: FdSpec = RESIDUAL_JACOBIAN_SPEC,
    param_step: float = RESIDUAL_JACOBIAN_PARAM_STEP,
) -> np.ndarray:
    """Central differences of the interior residual w.r.t. every parameter.

    Parameters are enumerated in the package-wide flattening order, so the
    result lines up with the analytic residual Jacobian rows.
    """
    point = np.asarray(point, dtype=np.float64)
    vec = params_to_vec(params)
    jac = np.zeros(vec.size)
    for k in range(vec.size):
        vp = vec.copy()
        vm = vec.copy()
        vp[k] += param_step
        vm[k] -= param_step
        rp = _residual_from_forward(problem, vec_to_params(vp, params), point, spec)
        rm = _residual_from_forward(problem, vec_to_params(vm, params), point, spec)
        jac[k] = (rp - rm) / (2.0 * param_step)
    return jac
