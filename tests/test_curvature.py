import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from pinnopt import curvature, network, pde
from pinnopt.curvature import (
    boundary_factor_update,
    ema_update,
    init_kfac_state,
    initial_curvature,
    interior_factor_update,
    param_grad_matrix,
    precondition_gradient,
    residual_jacobian_rows,
)
from pinnopt.network import Parameters, init_params, tanh_derivs
from pinnopt.optim import OptimizerConfig, evaluate_batch
from pinnopt.taylor import (
    FactoredAdjoint,
    FactoredState,
    OperatorCoeffs,
    Workspace,
    _activation_backward,
    taylor_backward,
    taylor_forward,
)
from test_taylor import dense, taylor_forward_activation, taylor_forward_linear


def with_bias(z):
    """Append a 1 to each row of an (N, h) input: the bias entry of ``[W | b]``."""
    return np.concatenate([z, np.ones((z.shape[0], 1))], axis=1)


def materialised_states(params, x, coeffs) -> tuple:
    """``(inputs, pres)``: every linear layer's (N, S, h) input and output state, materialised."""
    inputs, pres = [oracle.initial_state(x)], []
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        pres.append(taylor_forward_linear(w, b, inputs[-1]))
        if l < params.n_linear - 1:
            inputs.append(taylor_forward_activation(pres[-1], coeffs))
    return inputs, pres


def materialised_record(params, x, coeffs, seeds) -> list:
    """The interior record ``[(z_l, g_l)]`` of points ``x`` and residual ``seeds`` (N, S), all in full.

    Every layer input ``z_l`` and output gradient ``g_l`` is an (N, S, h)
    array, which the engines never form: ``oracle.initial_state(x)``, then
    ``taylor_forward_linear`` and ``taylor_forward_activation`` layer by
    layer on materialised states, and back from the seeds through ``g W_l``
    and ``_activation_backward`` with per-sample derivative columns.  The
    package's record readers take it like any record with no closed-form or
    factored entry, so it is the reference for those.  (``oracle`` imports
    no engine.)
    """
    d = x.shape[1]
    inputs, pres = materialised_states(params, x, coeffs)
    adjoints = [np.asarray(seeds, dtype=np.float64)[:, :, None]]
    for l in reversed(range(1, params.n_linear)):
        pre = pres[l - 1]
        adjoints.insert(0, _activation_backward(
            tanh_derivs(pre[:, 0, :]), pre[:, 1 : d + 1, :], pre[:, d + 1, :],
            adjoints[0] @ params.weights[l], coeffs, Workspace(),
        ))
    return list(zip(inputs, adjoints))


def _interior_seeds(p, batch, problem):
    """The residual seeds (N, S) of the interior points, as ``evaluate_batch`` makes them."""
    _, out = taylor_forward(p, batch.interior, problem.coeffs)
    return problem.residual_grads(batch.interior, out.value, out.gradient, out.operator)


def _reference_record(p, batch, problem):
    """The interior record with every layer's input and output gradient materialised."""
    return materialised_record(p, batch.interior, problem.coeffs, _interior_seeds(p, batch, problem))


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


def test_initial_curvature():
    assert np.array_equal(initial_curvature(3, "zero"), np.zeros((3, 3)))
    assert np.array_equal(initial_curvature(3, "identity"), np.eye(3))
    with pytest.raises(ValueError, match="init_mode"):
        init_kfac_state(init_params((2, 3, 1), 0), "bogus")


class TestFactorUpdates:
    def test_interior_value_only_columns(self, poisson):
        # single sample whose state columns are zero except the value
        # column: A has rank 1, B comes from the one nonzero grad column
        p = Parameters([np.array([[1.0, 2.0]])], [np.array([0.0])])
        state = init_kfac_state(p, "zero")
        z = np.zeros((1, 4, 2))
        z[0, 0] = [3.0, 4.0]
        g = np.zeros((1, 4, 1))
        g[0, 0] = 2.0
        interior_factor_update(state, [(z, g)], 0.0)
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
        state = init_kfac_state(p, "zero")
        interior_factor_update(state, [(z, g)], 0.0)
        zhat = np.append(z[0, 0], 1.0)
        jac = np.kron(zhat[:, None], g[0, 0][:, None])  # column-stacked Jacobian
        exact = jac @ jac.T
        approx = np.kron(state.a_interior[0], state.b_interior[0])
        assert np.max(np.abs(approx - exact)) <= 1e-12

    def test_interior_factors_match_literal_loop(self, poisson):
        p = init_params((2, 4, 1), 9)
        batch = pde.sample_batch(poisson, 3, 3, seed=13)
        ev = evaluate_batch(p, batch, poisson)
        state = init_kfac_state(p, "zero")
        interior_factor_update(state, ev.interior, 0.0)
        for l, (z, g) in enumerate(_reference_record(p, batch, poisson)):
            n, s, h = z.shape
            zhat = np.zeros((n, s, h + 1))  # bias entry: 1 in the value column
            zhat[:, :, :h] = z
            zhat[:, 0, h] = 1.0
            a_ref = sum(np.outer(zhat[i, j], zhat[i, j]) for i in range(n) for j in range(s)) / (n * s)
            b_ref = sum(np.outer(g[i, j], g[i, j]) for i in range(n) for j in range(s)) / n
            assert np.max(np.abs(state.a_interior[l] - a_ref)) <= 1e-12
            assert np.max(np.abs(state.b_interior[l] - b_ref)) <= 1e-12

    def test_boundary_hand_checked_rank_one(self):
        # z = (3, 4), bias-augmented (3, 4, 1), unit output gradient
        p = Parameters([np.array([[1.0, 1.0]])], [np.array([0.0])])
        state = init_kfac_state(p, "zero")
        boundary_factor_update(state, [(np.array([[[3.0, 4.0]]]), np.array([[[1.0]]]))], 0.0)
        assert np.allclose(
            state.a_boundary[0],
            [[9.0, 12.0, 3.0], [12.0, 16.0, 4.0], [3.0, 4.0, 1.0]],
        )
        assert np.allclose(state.b_boundary[0], [[1.0]])

    def test_boundary_zero_gradients(self):
        p = Parameters([np.array([[1.0, 1.0]])], [np.array([0.0])])
        state = init_kfac_state(p, "zero")
        boundary_factor_update(state, [(np.ones((2, 1, 2)), np.zeros((2, 1, 1)))], 0.0)
        assert np.array_equal(state.b_boundary[0], np.zeros((1, 1)))

    def test_boundary_factors_match_literal_loop(self, poisson):
        p = init_params((2, 4, 1), 10)
        batch = pde.sample_batch(poisson, 3, 5, seed=14)
        _, inputs = network.forward_batch(p, batch.boundary)
        grads = network.backward_batch(p, inputs)
        state = init_kfac_state(p, "zero")
        boundary_factor_update(state, curvature.boundary_pairs(inputs, grads), 0.0)
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
        state = init_kfac_state(p, "identity")
        interior_factor_update(state, ev.interior, 0.5)
        boundary_factor_update(state, ev.boundary, 0.5)
        for mats in (state.a_interior, state.b_interior, state.a_boundary, state.b_boundary):
            for m in mats:
                assert np.max(np.abs(m - m.T)) <= 1e-12


class TestPrecondition:
    def test_zero_factors_damping_only(self):
        p = init_params((2, 3, 1), 0)
        state = init_kfac_state(p, "zero")
        grad = np.ones(13)
        out = precondition_gradient(state, grad, 1.0)
        assert np.allclose(out, -grad / 2.0, atol=1e-12)

    def test_matches_dense_block_inverse(self):
        rng = np.random.default_rng(4)
        p = init_params((3, 4, 1), 1)
        state = init_kfac_state(p, "zero")
        for lists, sizes in (
            ((state.a_interior, state.a_boundary), [4, 5]),
            ((state.b_interior, state.b_boundary), [4, 1]),
        ):
            for mats in lists:
                for l, k in enumerate(sizes):
                    a = rng.standard_normal((k, k))
                    mats[l] = a @ a.T
        grads = [rng.standard_normal((4, 4)), rng.standard_normal((1, 5))]
        lam = 0.3
        out = np.split(precondition_gradient(state, oracle.flatten_mats(grads), lam), [grads[0].size])
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
        state = init_kfac_state(p, "zero")
        interior_factor_update(state, [(z, g)], 0.0)
        zhat = np.append(z[0, 0], 1.0)
        jac = np.kron(zhat[:, None], g[0, 0][:, None])
        block = jac @ jac.T
        grad_vec = (jac @ jac.T) @ rng.standard_normal(3)  # keep g in the range of the block
        out = precondition_gradient(state, grad_vec, 1e-10)
        want = -pinv_psd(block, 1e-12) @ grad_vec
        assert np.linalg.norm(out - want) <= 1e-5 * np.linalg.norm(want)

    def test_requires_positive_damping(self):
        p = init_params((2, 3, 1), 0)
        state = init_kfac_state(p, "zero")
        with pytest.raises(ValueError):
            precondition_gradient(state, np.ones(13), 0.0)


class TestExactGramian:
    def test_boundary_only_consistency(self, poisson):
        # the linear net's Laplacian is 0: the interior point, source 0,
        # adds a zero Jacobian row, so the Gramian is the condition term's
        p = Parameters([np.array([[1.5, -2.0]])], [np.array([0.5])])
        batch = pde.Batch(np.zeros((1, 2)), np.array([[3.0, 4.0]]), np.zeros(1), np.zeros(1))
        g = oracle.exact_gramian(p, batch, poisson)
        state = init_kfac_state(p, "zero")
        _, inputs = network.forward_batch(p, batch.boundary)
        grads = network.backward_batch(p, inputs)
        boundary_factor_update(state, curvature.boundary_pairs(inputs, grads), 0.0)
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
        state = init_kfac_state(p, "zero")
        a = rng.standard_normal((4, 4))
        state.a_interior[0] = a @ a.T
        b = rng.standard_normal((2, 2))
        state.b_interior[0] = b @ b.T
        g = rng.standard_normal((2, 4))
        lam = 0.1
        out = precondition_gradient(state, g.flatten(order="F"), lam)
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
    """Forward states and the residual-seeded reverse pass's record, as ``evaluate_batch`` makes them."""
    states, out = taylor_forward(p, batch.interior, problem.coeffs)
    seeds = problem.residual_grads(batch.interior, out.value, out.gradient, out.operator)
    return states, taylor_backward(p, states, seeds, problem.coeffs)


class TestInputLayerClosedForm:
    """Layer 0 is computed from the points alone; the references loop over
    the materialised input state ``oracle.initial_state(x)`` and output
    gradient (:func:`materialised_record`) instead."""

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
        g = _reference_record(p, batch, problem)[0][1]
        return p, problem, batch, ev, zhat, g

    def test_factor(self, case):
        p, _, _, ev, zhat, g = case
        state = init_kfac_state(p, "zero")
        interior_factor_update(state, ev.interior, 0.0)
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
        got = param_grad_matrix(*ev.interior[0], Workspace(), np.ones(n)).T
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
        # (factored for one hidden layer) against the same bodies on the
        # materialised per-sample state
        p, problem, batch, _, zhat, g = case
        co = problem.coeffs
        states, record = _taylor_passes(p, batch, problem)
        z0 = oracle.initial_state(batch.interior)
        z1 = taylor_forward_linear(p.weights[0], p.biases[0], z0)
        assert np.max(np.abs(states[1] - z1[:, 0, :])) <= 1e-12
        if p.n_linear == 1:
            # the output adjoint is the residual seed of the materialised output
            d = batch.interior.shape[1]
            out = z1[:, 0, 0], z1[:, 1 : d + 1, 0], z1[:, d + 1, 0]
            seeds = problem.residual_grads(batch.interior, *out)
            assert np.max(np.abs(g[:, :, 0] - seeds)) <= 1e-12
            return
        z2 = taylor_forward_activation(z1, co)
        got = dense(record[1][0])
        assert np.max(np.abs(got - z2)) <= 1e-12 * max(1.0, np.max(np.abs(z2)))
        # the reverse pass keeps only linear-layer output adjoints, so the
        # first activation's output adjoint is formed here from layer 1's
        d = batch.interior.shape[1]
        g_ref = _activation_backward(
            tanh_derivs(z1[:, 0, :]), z1[:, 1 : d + 1, :], z1[:, d + 1, :],
            np.matmul(dense(record[1][1]), p.weights[1]), co, Workspace(),
        )
        got = dense(record[0][1])
        assert np.max(np.abs(got - g_ref)) <= 1e-12 * max(1.0, np.max(np.abs(g_ref)))


class TestFirstHiddenClosedForm:
    """Layer 1's interior input sum from the factored state's value, slope and
    operator columns and W0 W0^T, against the direct sum over the materialised
    state."""

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
        co, x, seeds = OperatorCoeffs(c), rng.uniform(-1.0, 1.0, (n, d)), np.zeros((n, d + 2))
        states, _ = taylor_forward(p, x, co)
        z = taylor_backward(p, states, seeds, co)[1][0]
        direct = curvature._input_gram(materialised_record(p, x, co, seeds)[1][0])
        assert isinstance(z, FactoredState) and z.shared
        closed = curvature._input_gram(z, p.weights[0] @ p.weights[0].T)
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


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)


class TestOneHiddenClosedForm:
    """A one-hidden-layer net's record holds layer 1's input and layer 0's output
    gradient in factored form; every quantity read from it against the same
    quantity from the materialised record (:func:`materialised_record`)."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(PROJECTED_PROBLEMS)),
        h=st.integers(1, 8),
        n=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(name="poisson2d_sin", h=1, n=1, seed=0)
    @example(name="nondiagonal", h=1, n=1, seed=1)
    @example(name="log_fokker_planck", h=8, n=1, seed=2)
    def test_matches_materialised_record(self, name, h, n, seed):
        problem = PROJECTED_PROBLEMS[name]()
        p = init_params((problem.dim, h, 1), seed % 1000)
        batch = pde.sample_batch(problem, n, 2, seed=seed)
        ev = evaluate_batch(p, batch, problem)
        ref = _reference_record(p, batch, problem)
        assert isinstance(ev.interior[0][1], FactoredAdjoint)
        assert isinstance(ev.interior[1][0], FactoredState)

        sums = curvature._factor_sums(ev.interior)
        for (a, b), (a_ref, b_ref) in zip(sums, curvature._factor_sums(ref)):
            _assert_close(a, a_ref)
            _assert_close(b, b_ref)
        weights = ev.residuals_int / n
        for entry, entry_ref in zip(ev.interior, ref):
            _assert_close(param_grad_matrix(*entry, Workspace(), weights), param_grad_matrix(*entry_ref, Workspace(), weights))
        rng = np.random.default_rng(seed)
        for k in (1, 2):
            basis = [rng.standard_normal(p.n_params) for _ in range(k)]
            got = curvature._interior_jacobian_rows(ev.interior, basis, Workspace())
            _assert_close(got, curvature._interior_jacobian_rows(ref, basis, Workspace()))
        _assert_close(curvature._interior_jacobian_rows(ev.interior), curvature._interior_jacobian_rows(ref))


COEFFICIENT_KINDS = ("identity", "zero_one", "diagonal", "full")


def _coefficients(kind, rng, d) -> np.ndarray:
    """A (d, d) coefficient matrix of one kind: identity, 0/1 diagonal, general diagonal or full."""
    if kind == "identity":
        return np.eye(d)
    if kind == "zero_one":
        return np.diag(rng.integers(0, 2, d).astype(np.float64))
    if kind == "diagonal":
        return np.diag(rng.uniform(-2.0, 2.0, d))
    m = rng.standard_normal((d, d))
    return m + m.T


class TestDeepFactoredRecord:
    """A net with two or three hidden layers keeps every activation's state factored:
    W0^T columns after the first activation, per-sample columns after a later one,
    and its last hidden adjoint factored over the last pre-activation's columns.
    Every quantity read from its record (the A and B sums, every gradient block,
    J V for one and two directions and engd's rows) against the same quantity
    from the materialised record (:func:`materialised_record`)."""

    @settings(max_examples=40, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 6), min_size=2, max_size=3),
        kind=st.sampled_from(COEFFICIENT_KINDS),
        d=st.integers(1, 4),
        n=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(hidden=[3, 4], kind="identity", d=2, n=1, seed=0)
    @example(hidden=[3, 4, 2], kind="full", d=3, n=1, seed=1)
    @example(hidden=[5, 2, 4], kind="zero_one", d=4, n=7, seed=2)
    @example(hidden=[4, 4], kind="diagonal", d=3, n=9, seed=3)
    def test_matches_materialised_record(self, hidden, kind, d, n, seed):
        rng = np.random.default_rng(seed)
        co = OperatorCoeffs(_coefficients(kind, rng, d))
        p = init_params((d, *hidden, 1), seed % 1000)
        x = rng.uniform(-1.0, 1.0, (n, d))
        seeds = rng.standard_normal((n, d + 2))
        states, _ = taylor_forward(p, x, co)
        record = taylor_backward(p, states, seeds, co)
        ref = materialised_record(p, x, co, seeds)
        assert [isinstance(z, FactoredState) and z.shared for z, _ in record] == [False, True] + [False] * (len(hidden) - 1)
        assert all(isinstance(z, FactoredState) for z, _ in record[1:])
        assert [isinstance(g, FactoredAdjoint) for _, g in record] == [False] * (len(hidden) - 1) + [True, False]
        assert not record[-2][1].shared

        for (a, b), (a_ref, b_ref) in zip(curvature._factor_sums(record), curvature._factor_sums(ref)):
            _assert_close(a, a_ref)
            _assert_close(b, b_ref)
        weights = rng.standard_normal(n)
        for entry, entry_ref in zip(record, ref):
            _assert_close(param_grad_matrix(*entry, Workspace(), weights), param_grad_matrix(*entry_ref, Workspace(), weights))
        for k in (1, 2):
            basis = [rng.standard_normal(p.n_params) for _ in range(k)]
            got = curvature._interior_jacobian_rows(record, basis, Workspace())
            _assert_close(got, curvature._interior_jacobian_rows(ref, basis, Workspace()))
        _assert_close(curvature._interior_jacobian_rows(record), curvature._interior_jacobian_rows(ref))


class TestFactoredLastAdjoint:
    """The last hidden adjoint's columns, from its factors and its columns
    ``beta * (c G)_i`` formed one at a time, against ``_activation_backward`` applied to
    ``seeds (x) w`` on the materialised last pre-activation: columns W0^T shared
    by the batch for one hidden layer, per-sample columns for more."""

    @pytest.mark.parametrize("hidden", [(5,), (4, 3), (3, 4, 2)], ids=["shared", "two_hidden", "three_hidden"])
    @pytest.mark.parametrize("kind", COEFFICIENT_KINDS)
    @pytest.mark.parametrize("n", [1, 7])
    def test_columns_match_activation_backward(self, hidden, kind, n):
        rng = np.random.default_rng(n)
        d = 3
        co = OperatorCoeffs(_coefficients(kind, rng, d))
        p = init_params((d, *hidden, 1), 6)
        x = rng.uniform(-1.0, 1.0, (n, d))
        seeds = rng.standard_normal((n, d + 2))
        states, _ = taylor_forward(p, x, co)
        g = taylor_backward(p, states, seeds, co)[-2][1]
        assert isinstance(g, FactoredAdjoint) and g.shared == (len(hidden) == 1)
        pre = materialised_states(p, x, co)[1][-2]
        want = _activation_backward(
            tanh_derivs(pre[:, 0, :]), pre[:, 1 : d + 1, :], pre[:, d + 1, :],
            seeds[:, :, None] * p.weights[-1][0], co, Workspace(),
        )
        p_bar, l_bar = seeds[:, 1 : d + 1], seeds[:, d + 1 :]
        derivatives = p_bar[:, :, None] * g.slope[:, None, :]
        for i, column in g.curvature_columns():
            derivatives[:, i, :] += column
        got = np.concatenate([g.value[:, None], derivatives, (l_bar * g.slope)[:, None]], axis=1)
        _assert_close(got, want)
