import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pinnopt import curvature, network, pde
from pinnopt.curvature import (
    boundary_factor_update,
    ema_update,
    init_kfac_state,
    interior_factor_update,
    precondition_gradient,
    residual_jacobian_rows,
)
from pinnopt.network import Parameters, init_params, tanh_derivs
from pinnopt.optim import OptimizerConfig, evaluate_batch
from pinnopt.taylor import (
    OperatorCoeffs,
    Workspace,
    _activation_backward,
    param_grad_matrix,
    taylor_backward,
    taylor_forward,
    taylor_forward_linear,
)

from test_taylor import taylor_forward_activation


def with_bias(z):
    """Append a 1 to each row of an (N, h) input: the bias entry of ``[W | b]``."""
    return np.concatenate([z, np.ones((z.shape[0], 1))], axis=1)


@pytest.fixture
def poisson():
    return pde.make_problem("poisson2d_sin")


class TestEmaUpdate:
    def test_beta_zero_returns_new(self):
        old, new = np.eye(2), np.full((2, 2), 3.0)
        assert np.array_equal(ema_update(old, new, 0.0), new)

    def test_beta_one_returns_old(self):
        old, new = np.eye(2), np.full((2, 2), 3.0)
        assert np.array_equal(ema_update(old, new, 1.0), old)

    def test_beta_one_rejected_by_config(self):
        with pytest.raises(ValueError):
            OptimizerConfig(optimizer="kfac", ema=1.0, damping=1e-2)

    def test_midpoint(self):
        assert np.array_equal(ema_update(np.eye(2), 3.0 * np.eye(2), 0.5), 2.0 * np.eye(2))


class TestFactorUpdates:
    def test_interior_value_only_columns(self, poisson):
        # single sample whose state columns are zero except the value
        # column: A has rank 1, B comes from the one nonzero grad column
        p = Parameters([np.array([[1.0, 2.0]])], [np.array([0.0])])
        state = init_kfac_state(p, ema=0.0, damping=1.0, init_mode="zero")
        z = np.zeros((1, 4, 2))
        z[0, 0] = [3.0, 4.0]
        g = np.zeros((1, 4, 1))
        g[0, 0] = 2.0
        interior_factor_update(state, p, [(z, g)])
        assert np.linalg.matrix_rank(state.a_interior[0]) == 1
        zhat = np.array([3.0, 4.0, 1.0])
        assert np.allclose(state.a_interior[0], np.outer(zhat, zhat) / 4.0)
        assert np.allclose(state.b_interior[0], [[4.0]])

    def test_single_column_rank_one_exactness(self):
        # one sample, one shared column: the Kronecker product of the
        # factors is exactly the outer-product Gramian of that column
        rng = np.random.default_rng(0)
        z = rng.standard_normal((1, 1, 3))
        g = rng.standard_normal((1, 1, 2))
        p = Parameters([rng.standard_normal((2, 3))], [np.zeros(2)])
        state = init_kfac_state(p, ema=0.0, damping=1.0, init_mode="zero")
        interior_factor_update(state, p, [(z, g)])
        zhat = np.append(z[0, 0], 1.0)
        jac = np.kron(zhat[:, None], g[0, 0][:, None])  # column-stacked Jacobian
        exact = jac @ jac.T
        approx = np.kron(state.a_interior[0], state.b_interior[0])
        assert np.max(np.abs(approx - exact)) <= 1e-12

    def test_interior_factors_match_literal_loop(self, poisson):
        p = init_params((2, 4, 1), 9)
        batch = pde.sample_batch(poisson, 3, 3, seed=13)
        ev = evaluate_batch(p, batch, poisson)
        state = init_kfac_state(p, ema=0.0, damping=1.0, init_mode="zero")
        interior_factor_update(state, p, ev.interior)
        ref_in = [oracle.initial_state(batch.interior)] + [z for z, _ in ev.interior[1:]]
        for l, (_, g) in enumerate(ev.interior):
            n, s, h = ref_in[l].shape
            zhat = np.zeros((n, s, h + 1))  # bias entry: 1 in the value column
            zhat[:, :, :h] = ref_in[l]
            zhat[:, 0, h] = 1.0
            a_ref = sum(np.outer(zhat[i, j], zhat[i, j]) for i in range(n) for j in range(s)) / (n * s)
            b_ref = sum(np.outer(g[i, j], g[i, j]) for i in range(n) for j in range(s)) / n
            assert np.max(np.abs(state.a_interior[l] - a_ref)) <= 1e-12
            assert np.max(np.abs(state.b_interior[l] - b_ref)) <= 1e-12

    def test_boundary_hand_checked_rank_one(self):
        # z = (3, 4), bias-augmented (3, 4, 1), unit output gradient
        p = Parameters([np.array([[1.0, 1.0]])], [np.array([0.0])])
        state = init_kfac_state(p, ema=0.0, damping=1.0, init_mode="zero")
        boundary_factor_update(state, [(np.array([[[3.0, 4.0]]]), np.array([[[1.0]]]))])
        assert np.allclose(
            state.a_boundary[0],
            [[9.0, 12.0, 3.0], [12.0, 16.0, 4.0], [3.0, 4.0, 1.0]],
        )
        assert np.allclose(state.b_boundary[0], [[1.0]])

    def test_boundary_zero_gradients(self):
        p = Parameters([np.array([[1.0, 1.0]])], [np.array([0.0])])
        state = init_kfac_state(p, ema=0.0, damping=1.0, init_mode="zero")
        boundary_factor_update(state, [(np.ones((2, 1, 2)), np.zeros((2, 1, 1)))])
        assert np.array_equal(state.b_boundary[0], np.zeros((1, 1)))

    def test_boundary_factors_match_literal_loop(self, poisson):
        p = init_params((2, 4, 1), 10)
        batch = pde.sample_batch(poisson, 3, 5, seed=14)
        _, inputs = network.forward_batch(p, batch.boundary)
        grads = network.backward_batch(p, inputs)
        state = init_kfac_state(p, ema=0.0, damping=1.0, init_mode="zero")
        boundary_factor_update(state, curvature.boundary_pairs(inputs, grads))
        for l in range(p.n_linear):
            zhat = with_bias(inputs[l])
            n = zhat.shape[0]
            a_ref = sum(np.outer(zhat[i], zhat[i]) for i in range(n)) / n
            b_ref = sum(np.outer(grads[l][i], grads[l][i]) for i in range(n)) / n
            assert np.max(np.abs(state.a_boundary[l] - a_ref)) <= 1e-12
            assert np.max(np.abs(state.b_boundary[l] - b_ref)) <= 1e-12

    def test_factors_symmetric(self, poisson):
        p = init_params((2, 6, 1), 11)
        batch = pde.sample_batch(poisson, 8, 8, seed=15)
        ev = evaluate_batch(p, batch, poisson)
        state = init_kfac_state(p, ema=0.5, damping=1.0, init_mode="identity")
        interior_factor_update(state, p, ev.interior)
        boundary_factor_update(state, ev.boundary)
        for mats in (state.a_interior, state.b_interior, state.a_boundary, state.b_boundary):
            for m in mats:
                assert np.max(np.abs(m - m.T)) <= 1e-12


class TestPrecondition:
    def test_zero_factors_damping_only(self):
        p = init_params((2, 3, 1), 0)
        state = init_kfac_state(p, ema=0.0, damping=1.0, init_mode="zero")
        grad = np.ones(13)
        out = precondition_gradient(state, grad)
        assert np.allclose(out, -grad / 2.0, atol=1e-12)

    def test_matches_dense_block_inverse(self):
        rng = np.random.default_rng(4)
        p = init_params((3, 4, 1), 1)
        state = init_kfac_state(p, ema=0.0, damping=0.3, init_mode="zero")
        for lists, sizes in (
            ((state.a_interior, state.a_boundary), [4, 5]),
            ((state.b_interior, state.b_boundary), [4, 1]),
        ):
            for mats in lists:
                for l, k in enumerate(sizes):
                    a = rng.standard_normal((k, k))
                    mats[l] = a @ a.T
        grads = [rng.standard_normal((4, 4)), rng.standard_normal((1, 5))]
        out = np.split(precondition_gradient(state, oracle.flatten_mats(grads)), [grads[0].size])
        lam = state.damping
        for l, g in enumerate(grads):
            q, pdim = g.shape
            dense = np.kron(state.a_interior[l] + lam * np.eye(pdim), state.b_interior[l] + lam * np.eye(q))
            dense += np.kron(state.a_boundary[l] + lam * np.eye(pdim), state.b_boundary[l] + lam * np.eye(q))
            want = -np.linalg.solve(dense, g.flatten(order="F"))
            got = out[l]
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_interior_rank_one_approaches_pinv_step(self, poisson):
        # with boundary factors zero and tiny damping, the preconditioned
        # gradient approaches the dense pseudo-inverse Gauss-Newton step
        from pinnopt.linalg import pinv_psd

        rng = np.random.default_rng(6)
        p = Parameters([rng.standard_normal((1, 2))], [rng.standard_normal(1)])
        z = rng.standard_normal((1, 1, 2))
        g = rng.standard_normal((1, 1, 1))
        state = init_kfac_state(p, ema=0.0, damping=1e-10, init_mode="zero")
        interior_factor_update(state, p, [(z, g)])
        zhat = np.append(z[0, 0], 1.0)
        jac = np.kron(zhat[:, None], g[0, 0][:, None])
        block = jac @ jac.T
        grad_vec = (jac @ jac.T) @ rng.standard_normal(3)  # keep g in the range of the block
        out = precondition_gradient(state, grad_vec)
        want = -pinv_psd(block, 1e-12) @ grad_vec
        assert np.linalg.norm(out - want) <= 1e-5 * np.linalg.norm(want)

    def test_requires_positive_damping(self):
        p = init_params((2, 3, 1), 0)
        state = init_kfac_state(p, ema=0.0, damping=0.0, init_mode="zero")
        with pytest.raises(ValueError):
            precondition_gradient(state, np.ones(13))


class TestExactGramian:
    def test_boundary_only_consistency(self, poisson):
        p = Parameters([np.array([[1.5, -2.0]])], [np.array([0.5])])
        batch = pde.Batch(np.zeros((0, 2)), np.array([[3.0, 4.0]]), np.zeros(1), np.zeros(0))
        g = oracle.exact_gramian(p, batch, poisson)
        state = init_kfac_state(p, ema=0.0, damping=1.0, init_mode="zero")
        _, inputs = network.forward_batch(p, batch.boundary)
        grads = network.backward_batch(p, inputs)
        boundary_factor_update(state, curvature.boundary_pairs(inputs, grads))
        kron = np.kron(state.a_boundary[0], state.b_boundary[0])
        assert np.max(np.abs(g - kron)) <= 1e-12

    def test_symmetric_psd(self, poisson):
        p = init_params((2, 6, 1), 2)
        batch = pde.sample_batch(poisson, 10, 6, seed=3)
        g = oracle.exact_gramian(p, batch, poisson)
        assert np.max(np.abs(g - g.T)) == 0.0
        evals = np.linalg.eigvalsh(g)
        assert evals[0] >= -1e-10 * np.max(np.abs(g))

    def test_matches_fd_jacobians(self, poisson):
        import oracle

        p = init_params((2, 4, 1), 3)
        batch = pde.sample_batch(poisson, 3, 2, seed=5)
        g = oracle.exact_gramian(p, batch, poisson)
        # independent reference: finite-difference residual Jacobians
        rows = np.stack(
            [oracle.fd_residual_jacobian(poisson, p, x) for x in batch.interior]
        )
        _, inputs = network.forward_batch(p, batch.boundary)
        grads = network.backward_batch(p, inputs)
        rows_b = np.concatenate(
            [
                (with_bias(z)[:, :, None] * gr[:, None, :]).reshape(2, -1)
                for z, gr in zip(inputs, grads)
            ],
            axis=1,
        )
        g_ref = rows.T @ rows / 3 + rows_b.T @ rows_b / 2
        assert oracle.rel_error(g, g_ref) <= 1e-5

    def test_zero_jacobians_zero_gramian(self, poisson):
        # saturated tanh units give vanishing derivatives; rig directly with
        # zero gradients through a zero last layer
        p = init_params((2, 4, 1), 4)
        p.weights[1][:] = 0.0
        batch = pde.sample_batch(poisson, 3, 3, seed=6)
        g = oracle.exact_gramian(p, batch, poisson)
        # last-layer weight entries still receive nonzero Jacobian, so only
        # check the first-layer block of the interior part vanishes jointly
        rows_int, rows_bnd = residual_jacobian_rows(p, batch, poisson)
        assert np.max(np.abs(rows_int[:, :12])) == 0.0
        assert np.max(np.abs(rows_bnd[:, :12])) == 0.0
        assert np.max(np.abs(g[:12, :12])) == 0.0


class TestGramianVec:
    def test_zero_vector(self, poisson):
        p = init_params((2, 4, 1), 5)
        batch = pde.sample_batch(poisson, 4, 3, seed=7)
        assert np.array_equal(oracle.gramian_vec(p, batch, poisson, np.zeros(p.n_params)), np.zeros(p.n_params))

    def test_unit_vectors_reproduce_columns(self, poisson):
        p = init_params((2, 8, 1), 6)
        batch = pde.sample_batch(poisson, 6, 4, seed=8)
        g = oracle.exact_gramian(p, batch, poisson)
        d = p.n_params
        for k in range(0, d, 7):
            e = np.zeros(d)
            e[k] = 1.0
            col = oracle.gramian_vec(p, batch, poisson, e)
            assert np.max(np.abs(col - g[:, k])) <= 1e-10 * max(1.0, np.max(np.abs(g[:, k])))

    def test_quadratic_form_nonnegative(self, poisson):
        p = init_params((2, 5, 1), 7)
        batch = pde.sample_batch(poisson, 5, 3, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(5):
            v = rng.standard_normal(p.n_params)
            assert v @ oracle.gramian_vec(p, batch, poisson, v) >= -1e-12

    def test_dimension_check(self, poisson):
        p = init_params((2, 4, 1), 8)
        batch = pde.sample_batch(poisson, 2, 2, seed=11)
        with pytest.raises(ValueError):
            oracle.gramian_vec(p, batch, poisson, np.zeros(3))


class TestFlatteningConsistency:
    def test_single_layer_preconditioner_equals_dense(self):
        # guards the column-stacking convention end to end on one layer
        rng = np.random.default_rng(12)
        p = Parameters([rng.standard_normal((2, 3))], [rng.standard_normal(2)])
        state = init_kfac_state(p, ema=0.0, damping=0.1, init_mode="zero")
        a = rng.standard_normal((4, 4))
        state.a_interior[0] = a @ a.T
        b = rng.standard_normal((2, 2))
        state.b_interior[0] = b @ b.T
        g = rng.standard_normal((2, 4))
        out = precondition_gradient(state, g.flatten(order="F"))
        lam = 0.1
        # zero condition-term factors contribute lam^2 * I after damping
        dense = np.kron(state.a_interior[0] + lam * np.eye(4), state.b_interior[0] + lam * np.eye(2))
        dense += lam * lam * np.eye(8)
        want = -np.linalg.solve(dense, g.flatten(order="F"))
        assert np.linalg.norm(out - want) <= 1e-8 * np.linalg.norm(want)


def _nondiagonal_problem():
    # the 2d Poisson problem with a random symmetric, non-diagonal operator
    c = np.random.default_rng(21).standard_normal((2, 2))
    return dataclasses.replace(pde.make_problem("poisson2d_sin"), coeffs=OperatorCoeffs(0.5 * (c + c.T)))


INPUT_LAYER_CASES = {
    "laplacian": (lambda: pde.make_problem("poisson2d_sin"), (2, 6, 1)),
    "heat_partial_laplacian": (lambda: pde.make_problem("heat", spatial_dim=1), (2, 5, 1)),
    "nondiagonal": (_nondiagonal_problem, (2, 4, 3, 1)),
    "linear_net": (lambda: pde.make_problem("poisson2d_sin"), (2, 1)),
    "three_hidden": (lambda: pde.make_problem("heat", spatial_dim=1), (2, 4, 3, 5, 1)),
}


def _taylor_passes(p, batch, problem):
    """Forward states and residual-seeded reverse pass, as ``evaluate_batch`` makes them."""
    states, out = taylor_forward(p, batch.interior, problem.coeffs)
    seeds = problem.residual_grads(batch.interior, out.value, out.gradient, out.operator)
    return states, taylor_backward(p, states, seeds, problem.coeffs)


class TestInputLayerClosedForm:
    """Layer 0 is computed from the points alone; the references loop over
    the materialised input state ``oracle.initial_state(x)`` instead."""

    @pytest.fixture(params=sorted(INPUT_LAYER_CASES))
    def case(self, request):
        make, widths = INPUT_LAYER_CASES[request.param]
        problem = make()
        p = init_params(widths, 31)
        batch = pde.sample_batch(problem, 5, 4, seed=32)
        ev = evaluate_batch(p, batch, problem)
        z0 = oracle.initial_state(batch.interior)
        n, s, d = z0.shape
        zhat = np.zeros((n, s, d + 1))
        zhat[:, :, :d] = z0
        zhat[:, 0, d] = 1.0
        g = ev.interior[0][1]
        return p, problem, batch, ev, zhat, g

    def test_factor(self, case):
        p, _, _, ev, zhat, g = case
        state = init_kfac_state(p, ema=0.0, damping=1.0, init_mode="zero")
        interior_factor_update(state, p, ev.interior)
        n, s, _ = zhat.shape
        a_ref = sum(np.outer(zhat[i, j], zhat[i, j]) for i in range(n) for j in range(s)) / (n * s)
        b_ref = sum(np.outer(g[i, j], g[i, j]) for i in range(n) for j in range(s)) / n
        assert np.max(np.abs(state.a_interior[0] - a_ref)) <= 1e-12
        assert np.max(np.abs(state.b_interior[0] - b_ref)) <= 1e-12

    def test_jacobian_rows(self, case):
        p, problem, batch, _, zhat, g = case
        rows_int, _ = residual_jacobian_rows(p, batch, problem)
        n, s, _ = zhat.shape
        for i in range(n):
            block = sum(np.outer(zhat[i, j], g[i, j]) for j in range(s))
            seg = rows_int[i, : block.size]
            assert np.max(np.abs(seg - block.ravel())) <= 1e-12 * max(1.0, np.max(np.abs(block)))

    def test_weight_grads(self, case):
        p, problem, batch, ev, zhat, g = case
        n, s, _ = zhat.shape
        ref = sum(np.outer(g[i, j], zhat[i, j]) for i in range(n) for j in range(s))
        got = param_grad_matrix(*ev.interior[0], Workspace())
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert len(_taylor_passes(p, batch, problem)[1]) == p.n_linear

    def test_gradient_matrix(self, case):
        p, _, batch, ev, zhat, g = case
        n, s, _ = zhat.shape
        w_int = ev.residuals_int / n
        ref = sum(w_int[i] * np.outer(g[i, j], zhat[i, j]) for i in range(n) for j in range(s))
        zb = with_bias(batch.boundary)
        gb = ev.boundary[0][1][:, 0, :]
        w_bnd = ev.residuals_bnd / zb.shape[0]
        ref = ref + sum(w_bnd[i] * np.outer(gb[i], zb[i]) for i in range(zb.shape[0]))
        got = ev.grad[: ref.size].reshape(ref.shape, order="F")
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_first_layer_adjoint_matches_materialised_state(self, case):
        # the first activation and its adjoint on the broadcast W0^T input
        # against the same bodies on the materialised per-sample state
        p, problem, batch, _, zhat, g = case
        co = problem.coeffs
        states, adjoints = _taylor_passes(p, batch, problem)
        z0 = oracle.initial_state(batch.interior)
        z1 = taylor_forward_linear(p.weights[0], p.biases[0], z0, Workspace())
        assert np.max(np.abs(states[1] - z1[:, 0, :])) <= 1e-12
        if p.n_linear == 1:
            # the output adjoint is the residual seed of the materialised output
            d = batch.interior.shape[1]
            out = z1[:, 0, 0], z1[:, 1 : d + 1, 0], z1[:, d + 1, 0]
            seeds = problem.residual_grads(batch.interior, *out)
            assert np.max(np.abs(g[:, :, 0] - seeds)) <= 1e-12
            return
        derivs = tanh_derivs(z1[:, 0, :], order=2)
        z2 = taylor_forward_activation(derivs, z1, co, Workspace())
        assert np.max(np.abs(states[2] - z2)) <= 1e-12 * max(1.0, np.max(np.abs(z2)))
        # the reverse pass keeps only linear-layer output adjoints, so the
        # first activation's output adjoint is formed here from layer 1's
        d = batch.interior.shape[1]
        g_ref = _activation_backward(
            tanh_derivs(z1[:, 0, :]), z1[:, 1 : d + 1, :], z1[:, d + 1, :],
            np.matmul(adjoints[1], p.weights[1]), co, Workspace(),
        )
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * max(1.0, np.max(np.abs(g_ref)))


class TestFirstHiddenClosedForm:
    """Layer 1's interior input sum from the value and operator columns and W0,
    against the direct sum over the materialised state."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2, 10]),
        n_linear=st.sampled_from([2, 3]),
        coeffs=st.sampled_from(["identity", "diagonal", "full"]),
        n=st.integers(1, 16),
        h=st.integers(1, 8),
    )
    def test_matches_direct_sum(self, seed, d, n_linear, coeffs, n, h):
        rng = np.random.default_rng(seed)
        c = {
            "identity": np.eye(d),
            "diagonal": np.diag(rng.uniform(0.1, 2.0, d)),
            "full": (lambda m: m + m.T)(rng.standard_normal((d, d))),
        }[coeffs]
        p = init_params((d,) + (h,) * (n_linear - 1) + (1,), seed % 1000)
        states, _ = taylor_forward(p, rng.uniform(-1.0, 1.0, (n, d)), OperatorCoeffs(c))
        z = states[2]
        direct = curvature._input_gram(z)
        closed = curvature._input_gram(z, p.weights[0])
        assert np.max(np.abs(closed - direct)) <= 1e-13 * np.max(np.abs(direct))


PROJECTED_PROBLEMS = {
    **{name: (lambda name=name: pde.make_problem(name)) for name in pde.PROBLEM_NAMES},
    "nondiagonal": _nondiagonal_problem,
}


class TestProjectedRows:
    """``J V`` built from the records against the full rows times the stacked directions,
    and the two Gramians of the records against the oracle's dense one."""

    @pytest.mark.parametrize("name", sorted(PROJECTED_PROBLEMS))
    @pytest.mark.parametrize("hidden", [(), (7,), (5, 4, 6)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_rows_times_basis(self, name, hidden, k):
        problem = PROJECTED_PROBLEMS[name]()
        p = init_params((problem.dim,) + hidden + (1,), 41)
        batch = pde.sample_batch(problem, 6, 5, seed=42)
        ev = evaluate_batch(p, batch, problem)
        rng = np.random.default_rng(43)
        basis = [rng.standard_normal(ev.grad.size) for _ in range(k)]
        v = np.stack(basis, axis=1)
        for rows_of, record in (
            (curvature._interior_jacobian_rows, ev.interior),
            (curvature._boundary_jacobian_rows, ev.boundary),
        ):
            want = rows_of(record) @ v
            got = rows_of(record, basis, Workspace())
            assert got.shape == want.shape == (record[0][1].shape[0], k)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        gram = oracle.exact_gramian(p, batch, problem)
        dense = curvature.dense_gramian(ev.interior, ev.boundary)
        assert np.max(np.abs(dense - dense.T)) == 0.0
        assert np.max(np.abs(dense - gram)) <= 1e-13 * np.max(np.abs(gram))
        want = v.T @ gram @ v
        got = curvature.projected_gramian(ev.interior, ev.boundary, basis, Workspace())
        assert got.shape == (k, k)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
