import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import analytic
import oracle
from pinnopt import network, pde
from pinnopt.network import init_params
from pinnopt.pde import (
    boundary_loss,
    interior_loss_and_residuals,
    interior_losses,
    make_problem,
    sample_batch,
)
from pinnopt.taylor import Workspace, taylor_output

ALL_PROBLEMS = [
    ("poisson2d_sin", {}),
    ("poisson_cos_sum", {}),
    ("poisson_harmonic_mixed", {}),
    ("poisson_norm2", {"dim": 7}),
    ("heat", {"spatial_dim": 1}),
    ("heat", {"spatial_dim": 4}),
    ("log_fokker_planck", {}),
]

# per configuration of ALL_PROBLEMS: name, dim, boundary kind, box, operator diagonal
UNIT = (0.0, 1.0)
CATALOG = [
    ("poisson2d_sin", {}, 2, "faces", [UNIT] * 2, [1.0] * 2),
    ("poisson_cos_sum", {}, 5, "faces", [UNIT] * 5, [1.0] * 5),
    ("poisson_harmonic_mixed", {}, 10, "faces", [UNIT] * 10, [1.0] * 10),
    ("poisson_norm2", {"dim": 7}, 7, "faces", [UNIT] * 7, [1.0] * 7),
    ("heat", {"spatial_dim": 1}, 2, "heat", [UNIT] * 2, [0.0, 1.0]),
    ("heat", {"spatial_dim": 4}, 5, "heat", [UNIT] * 5, [0.0] + [1.0] * 4),
    ("log_fokker_planck", {}, 10, "initial", [UNIT] + [(-5.0, 5.0)] * 9, [0.0] + [1.0] * 9),
]

# interior_losses against the un-split reference: (problem params, net widths)
SPLIT_LOSS_CASES = {
    "poisson2d_sin": ({}, (2, 7, 1)),
    # diagonal, non-identity operator coefficients
    "heat": ({"spatial_dim": 1}, (2, 6, 1)),
    # two hidden layers and a nonlinear residual
    "log_fokker_planck": ({}, (10, 6, 5, 1)),
}


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_problem("wave")

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("poisson2d_sin", {"dim": 3}),
            ("poisson_norm2", {"dim": 2.5}),
            ("heat", {"spatial_dim": "1"}),
            ("heat", {"spatial_dim": 1, "kappa": "x"}),
            ("heat", {"spatial_dim": 1, "kappa": 0.25}),
        ],
    )
    def test_bad_parameters_name_the_problem(self, name, kwargs):
        with pytest.raises(ValueError, match=f"bad parameters for problem '{name}'"):
            make_problem(name, **kwargs)

    def test_poisson_norm2_default_dim(self):
        assert make_problem("poisson_norm2").dim == 100

    def test_heat_rejects_wrong_kappa(self):
        with pytest.raises(ValueError):
            make_problem("heat", spatial_dim=1, kappa=0.5)

    def test_heat_rejects_unsupported_dim(self):
        with pytest.raises(ValueError):
            make_problem("heat", spatial_dim=3)

    def test_poisson2d_rhs_at_center(self):
        # forcing term at (0.5, 0.5) is 2 pi^2; with u-data zero the
        # residual there reduces to -op - 2 pi^2
        problem = make_problem("poisson2d_sin")
        x = np.array([[0.5, 0.5]])
        r = problem.residual(x, problem.source(x), np.zeros(1), np.zeros((1, 2)), np.zeros(1))
        assert r[0] == pytest.approx(-2.0 * np.pi**2, abs=1e-12)
        assert 2.0 * np.pi**2 == pytest.approx(19.7392, abs=5e-5)

    @pytest.mark.parametrize("name,kwargs", ALL_PROBLEMS)
    def test_true_solution_residual_vanishes(self, name, kwargs):
        problem = make_problem(name, **kwargs)
        rng = np.random.default_rng(17)
        x = rng.uniform(problem.lower, problem.upper, size=(20, problem.dim))
        u, grad, op = analytic.triples_for(problem, x)
        r = problem.residual(x, problem.source(x), u, grad, op)
        assert np.max(np.abs(r)) <= 1e-10

    def test_poisson_norm2_polynomial_identity(self):
        problem = make_problem("poisson_norm2", dim=4)
        x = np.random.default_rng(0).uniform(0, 1, size=(5, 4))
        op = np.full(5, 8.0)  # Laplacian of ||x||^2 in 4d
        r = problem.residual(x, problem.source(x), None, None, op)
        assert np.array_equal(r, np.zeros(5))

    def test_heat_residual_on_analytic_solution(self):
        problem = make_problem("heat", spatial_dim=1)
        rng = np.random.default_rng(21)
        x = rng.uniform(problem.lower, problem.upper, size=(20, 2))
        u, grad, op = analytic.triples_for(problem, x)
        assert np.max(np.abs(problem.residual(x, problem.source(x), u, grad, op))) <= 1e-10

    @pytest.mark.parametrize("name,kwargs", ALL_PROBLEMS)
    def test_residual_grads_match_finite_differences(self, name, kwargs):
        problem = make_problem(name, **kwargs)
        rng = np.random.default_rng(3)
        n, d = 6, problem.dim
        x = rng.uniform(problem.lower, problem.upper, size=(n, d))
        u = rng.standard_normal(n)
        grad = rng.standard_normal((n, d))
        op = rng.standard_normal(n)
        seeds = problem.residual_grads(x, u, grad, op)
        assert seeds.shape == (n, d + 2)
        du, dgrad, dop = seeds[:, 0], seeds[:, 1:-1], seeds[:, -1]
        h = 1e-6

        def r(u_, grad_, op_):
            return problem.residual(x, problem.source(x), u_, grad_, op_)

        fd_u = (r(u + h, grad, op) - r(u - h, grad, op)) / (2 * h)
        assert np.max(np.abs(fd_u - du)) <= 1e-6
        fd_op = (r(u, grad, op + h) - r(u, grad, op - h)) / (2 * h)
        assert np.max(np.abs(fd_op - dop)) <= 1e-6
        for j in range(d):
            bump = np.zeros_like(grad)
            bump[:, j] = h
            fd_g = (r(u, grad + bump, op) - r(u, grad - bump, op)) / (2 * h)
            assert np.max(np.abs(fd_g - dgrad[:, j])) <= 1e-5

    def test_catalog_table_covers_all_problems(self):
        assert [(name, kwargs) for name, kwargs, *_ in CATALOG] == ALL_PROBLEMS

    @pytest.mark.parametrize("name,kwargs,dim,kind,box,diagonal", CATALOG)
    def test_declared_data(self, name, kwargs, dim, kind, box, diagonal):
        problem = make_problem(name, **kwargs)
        assert (problem.name, problem.dim, problem.boundary_kind) == (name, dim, kind)
        assert np.array_equal(problem.lower, [lo for lo, _ in box])
        assert np.array_equal(problem.upper, [hi for _, hi in box])
        assert np.array_equal(problem.coeffs.c, np.diag(diagonal))

    def test_poisson2d_boundary_targets_are_exact_zeros(self):
        # the true solution is only about 1e-16 on the faces, so the zero
        # targets are declared, not read from it
        problem = make_problem("poisson2d_sin")
        batch = sample_batch(problem, 4, 64, seed=0)
        assert np.array_equal(batch.boundary_targets, np.zeros(64))
        assert np.any(problem.true_solution(batch.boundary) != 0.0)

    def test_time_row_of_operator_coefficients_is_zero(self):
        for name, kwargs in [("heat", {"spatial_dim": 4}), ("log_fokker_planck", {})]:
            problem = make_problem(name, **kwargs)
            assert np.array_equal(problem.coeffs.c[0, :], np.zeros(problem.dim))
            assert np.array_equal(problem.coeffs.c[:, 0], np.zeros(problem.dim))


class TestSampling:
    def test_boundary_points_on_faces(self):
        problem = make_problem("poisson2d_sin")
        batch = sample_batch(problem, 5, 4, seed=0)
        b = batch.boundary
        dist = np.minimum(b, 1.0 - b).min(axis=1)
        assert np.array_equal(dist, np.zeros(4))

    def test_heat_half_initial_half_spatial(self):
        problem = make_problem("heat", spatial_dim=1)
        batch = sample_batch(problem, 5, 10, seed=1)
        b = batch.boundary
        n_initial = int(np.sum(b[:, 0] == 0.0))
        on_spatial = np.sum((b[:, 1] == 0.0) | (b[:, 1] == 1.0))
        assert n_initial >= 5
        assert on_spatial >= 5
        assert n_initial + on_spatial >= 10

    def test_log_fp_conditions_all_at_t0(self):
        problem = make_problem("log_fokker_planck")
        batch = sample_batch(problem, 3, 8, seed=2)
        assert np.array_equal(batch.boundary[:, 0], np.zeros(8))

    def test_deterministic(self):
        problem = make_problem("poisson_cos_sum")
        a = sample_batch(problem, 7, 5, seed=3)
        b = sample_batch(problem, 7, 5, seed=3)
        assert np.array_equal(a.interior, b.interior)
        assert np.array_equal(a.boundary, b.boundary)
        assert np.array_equal(a.boundary_targets, b.boundary_targets)

    def test_interior_inside_box(self):
        problem = make_problem("log_fokker_planck")
        batch = sample_batch(problem, 50, 5, seed=4)
        assert np.all(batch.interior >= problem.lower)
        assert np.all(batch.interior <= problem.upper)

    def test_counts_validated(self):
        problem = make_problem("poisson2d_sin")
        with pytest.raises(ValueError):
            sample_batch(problem, 0, 4, seed=0)


class TestLosses:
    def test_zero_residuals_zero_loss(self):
        # rig a zero-parameter net on the harmonic problem: u = 0 solves it
        problem = make_problem("poisson_harmonic_mixed")
        p = init_params((10, 4, 1), 0)
        p = network.Parameters(
            [np.zeros_like(w) for w in p.weights], [np.zeros_like(b) for b in p.biases]
        )
        batch = sample_batch(problem, 6, 4, seed=5)
        loss, r, _, _ = interior_loss_and_residuals(problem, p, batch)
        assert loss == 0.0
        assert np.array_equal(r, np.zeros(6))

    def test_interior_loss_arithmetic(self):
        # one sample with residual 3 gives loss 4.5
        problem = make_problem("poisson_norm2", dim=2)
        x = np.array([[0.5, 0.5]])
        batch = pde.Batch(x, np.zeros((1, 2)), np.zeros(1), problem.source(x))
        p = network.Parameters([np.array([[0.0, 0.0]])], [np.array([0.0])])
        # residual = -op + 2d = 4 for op = 0 ... rescale by choosing op via bias-free net
        loss, r, _, _ = interior_loss_and_residuals(problem, p, batch)
        assert r[0] == pytest.approx(4.0)
        assert loss == pytest.approx(0.5 * 16.0)

    def test_boundary_loss_arithmetic(self):
        problem = make_problem("poisson2d_sin")
        p = network.Parameters([np.array([[0.0, 0.0]])], [np.array([1.0])])
        batch = pde.Batch(
            np.zeros((1, 2)),
            np.array([[0.0, 0.5], [1.0, 0.5]]),
            np.array([2.0, 0.0]),  # residuals 1 - 2 = -1 and 1 - 0 = 1
            problem.source(np.zeros((1, 2))),
        )
        loss, res, _ = boundary_loss(problem, p, batch)
        assert np.array_equal(res, [-1.0, 1.0])
        assert loss == pytest.approx(0.5)

    def test_boundary_matches_pointwise_reevaluation(self):
        problem = make_problem("poisson2d_sin")
        p = init_params((2, 6, 1), 1)
        batch = sample_batch(problem, 3, 9, seed=6)
        _, res, _ = boundary_loss(problem, p, batch)
        for i, xb in enumerate(batch.boundary):
            u, _ = oracle.forward(p, xb)
            assert abs(res[i] - (u - batch.boundary_targets[i])) <= 1e-12

    def test_interior_matches_fd_laplacian_recomputation(self):
        problem = make_problem("poisson2d_sin")
        p = init_params((2, 8, 1), 2)
        batch = sample_batch(problem, 5, 4, seed=7)
        loss, r, _, _ = interior_loss_and_residuals(problem, p, batch)
        f = lambda y: oracle.forward(p, y)[0]
        total = 0.0
        for i, x in enumerate(batch.interior):
            op = oracle.fd_operator(f, x, problem.coeffs)
            u = f(x)
            grad = oracle.fd_gradient(f, x)
            r_ref = problem.residual(x[None], problem.source(x[None]), np.array([u]), grad[None], np.array([op]))[0]
            assert abs(r[i] - r_ref) <= 1e-5 * max(1.0, abs(r_ref))
            total += r_ref**2
        assert loss == pytest.approx(total / (2 * 5), rel=1e-5)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_losses_nonnegative(self, seed):
        problem = make_problem("poisson2d_sin")
        p = init_params((2, 5, 1), seed % 997)
        batch = sample_batch(problem, 4, 4, seed=seed % 1009)
        l_int, r, _, _ = interior_loss_and_residuals(problem, p, batch)
        l_bnd, res, _ = boundary_loss(problem, p, batch)
        assert l_int >= 0.0 and l_bnd >= 0.0
        assert (l_int == 0.0) == bool(np.all(r == 0.0))
        assert (l_bnd == 0.0) == bool(np.all(res == 0.0))


class TestInteriorLosses:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(SPLIT_LOSS_CASES)),
        n=st.integers(1, 20).map(lambda k: 2 * k - 1),  # odd: the halves differ by a row
        k=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        worker=st.booleans(),
    )
    # one row: half 1 is empty
    @example(name="log_fokker_planck", n=1, k=3, seed=0, worker=True)
    @example(name="heat", n=1, k=2, seed=1, worker=False)
    # cut into two rows and one, the one-row half rounded differently
    @example(name="heat", n=3, k=1, seed=1, worker=False)
    def test_equal_to_unsplit_reference(self, name, n, k, seed, worker):
        kwargs, widths = SPLIT_LOSS_CASES[name]
        problem = make_problem(name, **kwargs)
        batch = sample_batch(problem, n, 3, seed=seed)
        candidates = [init_params(widths, seed + j) for j in range(k)]
        reference = []
        for params in candidates:
            out = taylor_output(params, batch.interior, problem.coeffs)
            r = problem.residual(batch.interior, batch.source, out.value, out.gradient, out.operator)
            reference.append(float(r @ r) / (2.0 * n))
        workspace = Workspace(worker=worker)
        try:
            assert interior_losses(problem, candidates, batch, workspace) == reference
        finally:
            workspace.close()
