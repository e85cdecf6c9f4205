"""Problem catalog: operators, residuals, boundary data, samplers, losses.

Every problem lives on an axis-aligned box.  The interior residual is a
map of the point and the network output triple (u, grad u, L u) where L is
the problem's second-order operator; boundary/initial conditions are a
single regression term with targets from the known solution.  Time, where
present, is input coordinate 0 and is an ordinary network input; first
derivatives in time are read from the gradient, and the operator
coefficients have a zero row/column for it.  The four Poisson problems
are one equation, -Laplace u = f on the unit box: :func:`_poisson` builds
each from its dimension, solution and source, and :func:`_evolution` the
heat and log-Fokker-Planck problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import network
from .taylor import OperatorCoeffs, Workspace, taylor_forward, taylor_output

__all__ = [
    "PdeProblem",
    "Batch",
    "PROBLEM_NAMES",
    "make_problem",
    "sample_batch",
    "uniform_box",
    "interior_loss_and_residuals",
    "interior_losses",
    "boundary_loss",
]


@dataclass(frozen=True, eq=False)
class PdeProblem:
    """A PDE with its operator, residual map, condition data and solution.

    ``sample_condition(rng, n)`` draws the condition term's ``n`` points from ``rng``.
    ``source(x)`` is the per-point source term f of the equation, the part
    of the residual that depends on the point alone; :func:`sample_batch`
    evaluates it once per batch.  ``residual(x, f, u, grad, op)`` returns
    the per-sample interior residual given those source values;
    ``residual_grads(x, u, grad, op)`` its derivatives as the (N, d + 2) seed
    matrix ``[dr/du, dr/d(grad_1 u) ... dr/d(grad_d u), dr/d(L u)]`` that
    :func:`taylor.taylor_backward` takes, for loss gradients and Gauss-Newton rows.
    """

    name: str
    dim: int
    coeffs: OperatorCoeffs
    lower: np.ndarray
    upper: np.ndarray
    sample_condition: Callable
    source: Callable
    residual: Callable
    residual_grads: Callable
    boundary_target: Callable
    true_solution: Callable


@dataclass
class Batch:
    """Sampled collocation points, their source term, and boundary/initial targets.

    Both loss terms have points: a batch with no interior or no condition
    point is refused with a ``ValueError``.
    """

    interior: np.ndarray          # (N, d)
    boundary: np.ndarray          # (Nb, d)
    boundary_targets: np.ndarray  # (Nb,)
    source: np.ndarray            # (N,)  problem.source(interior)

    def __post_init__(self):
        _require_points(len(self.interior), len(self.boundary))


def _require_points(n_interior: int, n_boundary: int) -> None:
    """The batch contract: both loss terms have at least one point."""
    if n_interior < 1 or n_boundary < 1:
        raise ValueError("need at least one interior and one boundary point")


def _unit_box(d):
    return np.zeros(d), np.ones(d)


def _no_source(x):
    return np.zeros(x.shape[0])


def _poisson(name, d, true_solution, source=_no_source, boundary_target=None) -> PdeProblem:
    """-Laplace u = source on the unit box in d dimensions, Dirichlet data on its faces.

    ``boundary_target`` defaults to the true solution.
    """
    lower, upper = _unit_box(d)

    def residual(x, f, u, grad, op):
        return -op - f

    def residual_grads(x, u, grad, op):
        seeds = np.zeros((x.shape[0], d + 2))
        seeds[:, -1] = -1.0
        return seeds

    return PdeProblem(
        name=name,
        dim=d,
        coeffs=OperatorCoeffs.laplacian(d),
        lower=lower,
        upper=upper,
        sample_condition=lambda rng, n: _sample_faces(rng, lower, upper, n),
        source=source,
        residual=residual,
        residual_grads=residual_grads,
        boundary_target=boundary_target or true_solution,
        true_solution=true_solution,
    )


def _poisson2d_sin() -> PdeProblem:
    """-Laplace u = 2 pi^2 sin(pi x) sin(pi y) on the unit square, zero boundary."""

    def true_solution(x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def source(x):
        return 2.0 * np.pi ** 2 * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    # exact zeros: the true solution is only about 1e-16 on the faces
    return _poisson("poisson2d_sin", 2, true_solution, source, boundary_target=_no_source)


def _poisson_cos_sum() -> PdeProblem:
    """-Laplace u = pi^2 sum_i cos(pi x_i) in d=5, solution sum_i cos(pi x_i)."""

    def true_solution(x):
        return np.cos(np.pi * x).sum(axis=1)

    def source(x):
        return np.pi ** 2 * np.cos(np.pi * x).sum(axis=1)

    return _poisson("poisson_cos_sum", 5, true_solution, source)


def _poisson_harmonic_mixed() -> PdeProblem:
    """-Laplace u = 0 in d=10 with the harmonic solution sum_k x_{2k-1} x_{2k}."""

    def true_solution(x):
        return np.einsum("nk,nk->n", x[:, 0::2], x[:, 1::2])

    return _poisson("poisson_harmonic_mixed", 10, true_solution)


def _poisson_norm2(dim: int = 100) -> PdeProblem:
    """-Laplace u = -2d with solution ||x||^2 (dim is configurable)."""
    d = network.as_index(dim)
    if d < 1:
        raise ValueError(f"poisson_norm2 needs dim >= 1, got {dim}")

    def true_solution(x):
        return np.einsum("ni,ni->n", x, x)

    def source(x):
        return np.full(x.shape[0], -2.0 * d)

    return _poisson("poisson_norm2", d, true_solution, source)


def _evolution(name, d, lower, upper, sample_condition, source, residual, residual_grads, true_solution) -> PdeProblem:
    """A problem in time (coordinate 0) and space: the Laplacian over space only,
    condition targets from the true solution."""
    return PdeProblem(
        name=name,
        dim=d,
        coeffs=OperatorCoeffs.partial_laplacian(d, range(1, d)),
        lower=lower,
        upper=upper,
        sample_condition=sample_condition,
        source=source,
        residual=residual,
        residual_grads=residual_grads,
        boundary_target=true_solution,
        true_solution=true_solution,
    )


def _heat(spatial_dim: int = 1) -> PdeProblem:
    """Heat equation du/dt = kappa * Laplace_x u on [0,1] x [0,1]^s, kappa = 1/4.

    The diffusivity is fixed because the manufactured solutions below are
    exact only for kappa = 1/4.  Initial and spatial-boundary conditions
    are merged into one condition term with targets from the true solution.
    """
    s = network.as_index(spatial_dim)
    if s not in (1, 4):
        raise ValueError(f"heat supports spatial_dim in {{1, 4}}, got {spatial_dim}")
    kappa = 0.25
    d = s + 1
    lower, upper = _unit_box(d)

    if s == 1:

        def true_solution(x):
            return np.exp(-np.pi ** 2 * x[:, 0] / 4.0) * np.sin(np.pi * x[:, 1])

    else:

        def true_solution(x):
            return np.exp(-x[:, 0]) * np.sin(2.0 * x[:, 1:]).sum(axis=1)

    def sample_condition(rng, n):
        """Half the points (rounded up) at t = 0, the rest on time x the spatial faces."""
        n0 = (n + 1) // 2
        initial = uniform_box(rng, lower, upper, (n0, d))
        initial[:, 0] = 0.0
        nb = n - n0
        spatial = _sample_faces(rng, lower[1:], upper[1:], nb)
        times = uniform_box(rng, lower[0], upper[0], nb)
        return np.concatenate([initial, np.column_stack([times, spatial])], axis=0)

    def residual(x, f, u, grad, op):
        return grad[:, 0] - kappa * op - f

    def residual_grads(x, u, grad, op):
        seeds = np.zeros((x.shape[0], d + 2))
        seeds[:, 1] = 1.0
        seeds[:, -1] = -kappa
        return seeds

    return _evolution("heat", d, lower, upper, sample_condition, _no_source, residual, residual_grads, true_solution)


def _log_fokker_planck() -> PdeProblem:
    """Fokker-Planck equation in log space for an isotropic Gaussian.

    The density p(t, .) ~ N(0, (2 - exp(-t)) I) in 9 spatial dimensions
    solves dp/dt = div(x p / 2) + Laplace p; its logarithm q satisfies the
    nonlinear residual below.  The condition term pins q at the initial
    slice t = 0.
    """
    s = 9
    d = s + 1
    lower = np.concatenate([[0.0], np.full(s, -5.0)])
    upper = np.concatenate([[1.0], np.full(s, 5.0)])

    def true_solution(x):
        var = 2.0 - np.exp(-x[:, 0])
        sq = np.einsum("ni,ni->n", x[:, 1:], x[:, 1:])
        return -0.5 * s * np.log(2.0 * np.pi * var) - sq / (2.0 * var)

    def source(x):
        return np.full(x.shape[0], 0.5 * s)

    def residual(x, f, u, grad, op):
        gx = grad[:, 1:]
        drift = np.einsum("ni,ni->n", gx, x[:, 1:])
        return grad[:, 0] - f - 0.5 * drift - np.einsum("ni,ni->n", gx, gx) - op

    def residual_grads(x, u, grad, op):
        seeds = np.zeros((x.shape[0], d + 2))
        seeds[:, 1] = 1.0
        seeds[:, 2:-1] = -0.5 * x[:, 1:] - 2.0 * grad[:, 1:]
        seeds[:, -1] = -1.0
        return seeds

    def sample_condition(rng, n):
        points = uniform_box(rng, lower, upper, (n, d))
        points[:, 0] = 0.0
        return points

    return _evolution(
        "log_fokker_planck", d, lower, upper, sample_condition, source, residual, residual_grads, true_solution
    )


_FACTORIES = {
    "poisson2d_sin": _poisson2d_sin,
    "poisson_cos_sum": _poisson_cos_sum,
    "poisson_harmonic_mixed": _poisson_harmonic_mixed,
    "poisson_norm2": _poisson_norm2,
    "heat": _heat,
    "log_fokker_planck": _log_fokker_planck,
}

PROBLEM_NAMES = tuple(sorted(_FACTORIES))


def make_problem(name: str, **params) -> PdeProblem:
    """Build a catalog problem by name; extra keyword params where supported.

    Raises ValueError for an unknown name and for parameters the problem
    does not take or of the wrong type.
    """
    try:
        factory = _FACTORIES[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown problem {name!r}; known: {', '.join(PROBLEM_NAMES)}") from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for problem {name!r}: {exc}") from None


def uniform_box(rng, lower, upper, shape) -> np.ndarray:
    """Uniform points in the box [lower, upper): the numbers ``rng.uniform(lower, upper, shape)``
    draws, from the same stream, without its temporaries for array bounds."""
    points = rng.random(shape)
    points *= upper - lower
    points += lower
    return points


def _sample_faces(rng, lower, upper, n):
    """Uniform points on the faces of a box: pick a face, then a point on it."""
    d = lower.size
    faces = rng.integers(0, 2 * d, size=n)
    pts = uniform_box(rng, lower, upper, (n, d))
    axes = faces // 2
    sides = faces % 2
    pts[np.arange(n), axes] = np.where(sides == 0, lower[axes], upper[axes])
    return pts


def sample_batch(problem: PdeProblem, n_interior: int, n_boundary: int, seed: int) -> Batch:
    """Draw a training batch; deterministic for a given seed.

    Interior points are uniform over the box; the condition points come
    from ``problem.sample_condition``, drawn after them from the same
    generator.  Counts that :class:`Batch` would refuse are refused before
    anything is drawn.
    """
    _require_points(n_interior, n_boundary)
    rng = np.random.default_rng(seed)
    interior = uniform_box(rng, problem.lower, problem.upper, (n_interior, problem.dim))
    boundary = problem.sample_condition(rng, n_boundary)
    return Batch(interior, boundary, problem.boundary_target(boundary), problem.source(interior))


def _half_mean_square(r) -> float:
    return float(r @ r) / (2.0 * r.size)


def interior_loss_and_residuals(problem: PdeProblem, params, batch: Batch, workspace=None):
    """Interior loss ``sum r_n^2 / (2 N)`` plus residuals and forward data.

    The layer states live in ``workspace`` (see :func:`taylor.taylor_forward`).
    """
    states, out = taylor_forward(params, batch.interior, problem.coeffs, workspace)
    r = problem.residual(batch.interior, batch.source, out.value, out.gradient, out.operator)
    return _half_mean_square(r), r, states, out


def interior_losses(problem: PdeProblem, candidates, batch: Batch, workspace=None) -> list:
    """The interior loss of :func:`interior_loss_and_residuals` for each parameter set of ``candidates``.

    For loss-only evaluation such as the line search: one
    :meth:`Workspace.split` over the interior rows, in which each half runs
    the output-only forward pass (:func:`taylor.taylor_output`, no layer
    state kept) and the residual of every candidate on its own rows.  The
    residuals fill the rows of one (K, N) array from ``workspace`` (a fresh
    one when None), and each loss is taken over a full row on the caller,
    so it equals the loss of one pass over the whole batch bit for bit.
    The halves write the hidden states into their halves of the
    workspace's state buffers, over those of an earlier pass through it.
    """
    if workspace is None:
        workspace = Workspace()
    x, f = batch.interior, batch.source
    n = x.shape[0]
    residuals = workspace.array((len(candidates), n), "residual")

    def residual_rows(half):
        xh, fh = x[half.rows], f[half.rows]
        for k, params in enumerate(candidates):
            out = taylor_output(params, xh, problem.coeffs, half)
            residuals[k, half.rows] = problem.residual(xh, fh, out.value, out.gradient, out.operator)

    workspace.split(n, residual_rows)
    return [_half_mean_square(r) for r in residuals]


def boundary_loss(problem: PdeProblem, params, batch: Batch):
    """Condition loss ``sum (u - target)^2 / (2 N)``, residuals and the layer
    inputs of :func:`network.forward_batch` (dr/du = 1: no seed is needed)."""
    u, inputs = network.forward_batch(params, batch.boundary)
    res = u - batch.boundary_targets
    return _half_mean_square(res), res, inputs
