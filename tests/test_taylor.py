import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pinnopt import curvature, network, pde, taylor
from pinnopt.network import Parameters, init_params, tanh_derivs
from pinnopt.taylor import (
    FactoredAdjoint,
    FactoredState,
    OperatorCoeffs,
    Workspace,
    _activation,
    _linear,
    taylor_backward,
    taylor_forward,
    taylor_output,
)


def net_fn(params):
    return lambda x: oracle.forward(params, x)[0]


def seeded_param_grads(record):
    """Batch-summed ``[dW | db]`` per linear layer of the seeded reverse pass's record."""
    return [curvature.param_grad_matrix(z, g, Workspace(), np.ones(g.shape[0])).T for z, g in record]


def dense(entry) -> np.ndarray:
    """A record entry as the full (N, S, h) array it stands for (an array stays as it is)."""
    if isinstance(entry, FactoredState):
        derivatives = entry.slope[:, None, :] * entry.columns
        return np.concatenate([entry.value[:, None], derivatives, entry.operator[:, None]], axis=1)
    if isinstance(entry, FactoredAdjoint):
        d = entry.columns.shape[-2]
        p, l_bar = entry.seeds[:, 1 : d + 1], entry.seeds[:, d + 1]
        contracted = np.einsum("ij,...jh->...ih", entry.coeffs.c, entry.columns)
        block = p[:, :, None] * entry.slope[:, None] + contracted * entry.curvature[:, None]
        return np.concatenate([entry.value[:, None], block, (l_bar[:, None] * entry.slope)[:, None]], axis=1)
    return entry


def taylor_forward_activation(z_in, coeffs) -> np.ndarray:
    """The engine's activation layer on a materialised (N, d + 2, h) state, materialised."""
    z_in = np.asarray(z_in, dtype=np.float64)
    assert z_in.shape[1] == coeffs.dim + 2
    return dense(_activation(z_in, None, None, coeffs, Workspace(), None))


def taylor_forward_linear(w, b, z_in) -> np.ndarray:
    """The engine's linear layer on a materialised (N, d + 2, h) state.

    The state is handed over as a :class:`FactoredState` with slope 1 and
    per-sample derivative columns, whose derivative columns are the
    state's own (1 * g is g exactly).
    """
    z_in = np.asarray(z_in, dtype=np.float64)
    z = FactoredState(z_in[:, 0], np.ones_like(z_in[:, 0]), z_in[:, -1], z_in[:, 1:-1])
    return _linear(np.asarray(w, dtype=np.float64), b, z, None, Workspace(), None)


def random_coeffs(rng, d):
    c = rng.standard_normal((d, d))
    return OperatorCoeffs(0.5 * (c + c.T))


class TestOperatorCoeffs:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            OperatorCoeffs(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "c",
        [
            [[1.0, np.nan], [0.0, 1.0]],  # asymmetric, but NaN compares as false in the symmetry test
            [[np.nan, 0.0], [0.0, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, -np.inf], [-np.inf, 1.0]],
        ],
    )
    def test_rejects_non_finite(self, c):
        with pytest.raises(ValueError, match="non-finite"):
            OperatorCoeffs(np.array(c))

    def test_partial_laplacian(self):
        c = OperatorCoeffs.partial_laplacian(3, [1, 2]).c
        assert np.array_equal(c, np.diag([0.0, 1.0, 1.0]))

    def test_apply_matches_dense_contraction(self):
        rng = np.random.default_rng(0)
        co = random_coeffs(rng, 4)
        g = rng.standard_normal((6, 4, 3))
        want = np.einsum("ij,njh->nih", co.c, g)
        assert np.allclose(co.apply(g), want, atol=1e-14)


class TestInitialState:
    def test_layout(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = oracle.initial_state(x)
        assert z.shape == (2, 4, 2)
        assert np.array_equal(z[:, 0, :], x)
        assert np.array_equal(z[0, 1:3, :], np.eye(2))
        assert np.array_equal(z[:, 3, :], np.zeros((2, 2)))


class TestForwardLinear:
    def test_identity_layer(self):
        z = oracle.initial_state(np.array([[0.5, -0.5]]))
        out = taylor_forward_linear(np.eye(2), np.zeros(2), z)
        assert np.array_equal(out, z)

    def test_bias_touches_only_value_column(self):
        z = oracle.initial_state(np.array([[3.0, 4.0]]))
        out = taylor_forward_linear(np.array([[1.0, 2.0]]), np.array([5.0]), z)
        assert out[0, 0, 0] == 16.0
        assert out[0, 1, 0] == 1.0
        assert out[0, 2, 0] == 2.0
        assert out[0, 3, 0] == 0.0

    def test_every_column_multiplied(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((3, 5, 4))
        w = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        out = taylor_forward_linear(w, b, z)
        for n in range(3):
            for s in range(5):
                want = w @ z[n, s]
                if s == 0:
                    want = want + b
                assert np.max(np.abs(out[n, s] - want)) <= 1e-14


class TestForwardActivation:
    def test_zero_preactivation_passes_columns_through(self):
        # at z = 0: s1 = 1, s2 = 0, so derivatives and operator are copied
        z = np.zeros((1, 4, 3))
        z[0, 1:3, :] = np.random.default_rng(0).standard_normal((2, 3))
        z[0, 3, :] = [1.0, 2.0, 3.0]
        out = taylor_forward_activation(z, OperatorCoeffs.laplacian(2))
        assert np.array_equal(out[:, 0, :], np.zeros((1, 3)))
        assert np.array_equal(out[:, 1:3, :], z[:, 1:3, :])
        assert np.array_equal(out[:, 3, :], z[:, 3, :])

    def test_zero_coefficients_drop_quadratic_term(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((2, 4, 3))
        derivs = tanh_derivs(z[:, 0, :])
        out = taylor_forward_activation(z, OperatorCoeffs(np.zeros((2, 2))))
        assert np.allclose(out[:, 3, :], derivs.s1 * z[:, 3, :], atol=1e-14)

    def test_operator_column_matches_directional_second_differences(self):
        # sigma applied along an affine path x -> z + t * g must reproduce
        # the propagated operator column for c = I
        rng = np.random.default_rng(3)
        z = rng.standard_normal((1, 4, 5)) * 0.5
        derivs = tanh_derivs(z[:, 0, :])
        co = OperatorCoeffs.laplacian(2)
        out = taylor_forward_activation(z, co)
        h = 1e-4
        for unit in range(5):
            val = z[0, 0, unit]
            total = 0.0
            for i in range(2):
                g = z[0, 1 + i, unit]
                second = (np.tanh(val + h * g) - 2 * np.tanh(val) + np.tanh(val - h * g)) / h**2
                total += second
            total += derivs.s1[0, unit] * z[0, 3, unit]
            assert abs(out[0, 3, unit] - total) <= 1e-6 * max(1.0, abs(total))


class TestTaylorForward:
    def test_single_linear_layer(self):
        p = Parameters([np.array([[1.0, 2.0]])], [np.zeros(1)])
        _, out = taylor_forward(p, np.array([[3.0, 4.0]]), OperatorCoeffs.laplacian(2))
        assert out.value[0] == 11.0
        assert np.array_equal(out.gradient[0], [1.0, 2.0])
        assert out.operator[0] == 0.0

    def test_all_zero_parameters(self):
        p = init_params((3, 4, 1), 0)
        p = Parameters([np.zeros_like(w) for w in p.weights], [np.zeros_like(b) for b in p.biases])
        _, out = taylor_forward(p, np.ones((2, 3)), OperatorCoeffs.laplacian(3))
        assert np.array_equal(out.value, [0.0, 0.0])
        assert np.array_equal(out.gradient, np.zeros((2, 3)))
        assert np.array_equal(out.operator, [0.0, 0.0])

    def test_matches_finite_differences(self):
        p = init_params((2, 16, 16, 1), 4)
        pts = np.random.default_rng(5).uniform(-1, 1, size=(5, 2))
        co = OperatorCoeffs.laplacian(2)
        _, out = taylor_forward(p, pts, co)
        f = net_fn(p)
        for i, x in enumerate(pts):
            assert oracle.rel_error(out.gradient[i], oracle.fd_gradient(f, x)) <= 1e-8
            assert oracle.rel_error(out.operator[i], oracle.fd_operator(f, x, co)) <= 1e-6

    def test_value_column_equals_plain_forward(self):
        p = init_params((3, 8, 8, 1), 6)
        pts = np.random.default_rng(7).standard_normal((4, 3))
        states, out = taylor_forward(p, pts, OperatorCoeffs.laplacian(3))
        u, inputs = network.forward_batch(p, pts)
        assert np.max(np.abs(out.value - u)) <= 1e-12
        # the head's output state is not kept: its value column is out.value
        for l in range(p.n_linear - 1):
            # the first linear layer keeps only its value column (the pre-activation)
            value = states[1] if l == 0 else states[2 * l + 1][:, 0, :]
            pre_activation = inputs[l] @ p.weights[l].T + p.biases[l]
            assert np.max(np.abs(value - pre_activation)) <= 1e-12
            # activation outputs (factored states) are the next layer's plain inputs
            assert isinstance(states[2 * l + 2], FactoredState)
            assert np.max(np.abs(states[2 * l + 2].value - inputs[l + 1])) <= 1e-12

    def test_one_hidden_layer_analytic_laplacian(self):
        # u(x) = sum_j a_j tanh(w_j . x + b_j) + c has the closed form
        # Laplacian sum_j a_j sigma''(w_j . x + b_j) ||w_j||^2
        p = init_params((2, 7, 1), 8)
        pts = np.random.default_rng(9).uniform(-1, 1, size=(6, 2))
        _, out = taylor_forward(p, pts, OperatorCoeffs.laplacian(2))
        w1, b1 = p.weights[0], p.biases[0]
        a = p.weights[1][0]
        for i, x in enumerate(pts):
            pre = w1 @ x + b1
            d = tanh_derivs(pre)
            lap = float(np.sum(a * d.s2 * np.sum(w1**2, axis=1)))
            grad = w1.T @ (a * d.s1)
            assert abs(out.operator[i] - lap) <= 1e-10
            assert np.max(np.abs(out.gradient[i] - grad)) <= 1e-10

    def test_partial_laplacian_ignores_inactive_directions(self):
        # with c zero in coordinate 0, junk in that derivative column must
        # not leak into the operator column
        p = init_params((3, 6, 1), 10)
        x = np.random.default_rng(11).standard_normal((2, 3))
        co = OperatorCoeffs.partial_laplacian(3, [1, 2])
        z0 = oracle.initial_state(x)
        z0_junk = z0.copy()
        z0_junk[:, 1, :] = 123.456  # time-direction derivative column

        def propagate(z):
            for l, (w, b) in enumerate(zip(p.weights, p.biases)):
                z = taylor_forward_linear(w, b, z)
                if l < p.n_linear - 1:
                    z = taylor_forward_activation(z, co)
            return z

        a, b = propagate(z0), propagate(z0_junk)
        assert np.array_equal(a[:, 4, :], b[:, 4, :])  # operator column identical
        assert not np.array_equal(a[:, 1, :], b[:, 1, :])


class TestTaylorOutput:
    """The output-only forward against the output of the full forward pass."""

    @pytest.mark.parametrize("hidden", [(), (7,), (5, 4, 6)], ids=["linear", "one_hidden", "three_hidden"])
    @pytest.mark.parametrize("name", pde.PROBLEM_NAMES)
    def test_matches_taylor_forward(self, name, hidden):
        problem = pde.make_problem(name)
        d = problem.dim
        rng = np.random.default_rng(len(hidden) + 10 * d)
        p = init_params((d, *hidden, 1), 17)
        x = rng.uniform(problem.lower, problem.upper, size=(9, d))
        for co in (problem.coeffs, random_coeffs(rng, d)):
            _, want = taylor_forward(p, x, co)
            got = taylor_output(p, x, co)
            for field in ("value", "gradient", "operator"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), field

    def test_rejects_mismatched_operator(self):
        p = init_params((2, 4, 1), 0)
        with pytest.raises(ValueError):
            taylor_output(p, np.zeros((3, 2)), OperatorCoeffs.laplacian(3))


class TestTaylorBackward:
    def test_linear_net_has_zero_operator_gradient(self):
        p = Parameters([np.array([[1.5, -2.5]])], [np.array([0.3])])
        states, _ = taylor_forward(p, np.array([[1.0, 2.0]]), OperatorCoeffs.laplacian(2))
        seeds = np.array([[0.0, 0.0, 0.0, 1.0]])
        record = taylor_backward(p, states, seeds, OperatorCoeffs.laplacian(2))
        m = seeded_param_grads(record)[0]
        assert np.array_equal(m[:, :-1], np.zeros((1, 2)))
        assert np.array_equal(m[:, -1], np.zeros(1))

    def test_value_seed_matches_plain_backprop(self):
        p = init_params((2, 8, 8, 1), 12)
        pts = np.random.default_rng(13).uniform(-1, 1, size=(5, 2))
        co = OperatorCoeffs.laplacian(2)
        states, _ = taylor_forward(p, pts, co)
        seeds = np.zeros((5, 4))
        seeds[:, 0] = 1.0
        record = taylor_backward(p, states, seeds, co)
        u, inputs = network.forward_batch(p, pts)
        grads = network.backward_batch(p, inputs)
        mats = [
            sum(np.outer(g[n], np.append(z[n], 1.0)) for n in range(5))
            for z, g in zip(inputs, grads)
        ]
        got = seeded_param_grads(record)
        for l in range(p.n_linear):
            assert np.max(np.abs(got[l][:, :-1] - mats[l][:, :-1])) <= 1e-12
            assert np.max(np.abs(got[l][:, -1] - mats[l][:, -1])) <= 1e-12

    def test_operator_gradient_matches_finite_differences(self):
        p = init_params((2, 8, 1), 14)
        x = np.random.default_rng(15).uniform(-1, 1, size=(1, 2))
        co = OperatorCoeffs.laplacian(2)
        states, _ = taylor_forward(p, x, co)
        seeds = np.zeros((1, 4))
        seeds[0, 3] = 1.0
        record = taylor_backward(p, states, seeds, co)
        analytic = oracle.flatten_mats(seeded_param_grads(record))
        vec = oracle.params_to_vec(p)
        h = 1e-6
        for k in range(vec.size):
            vp, vm = vec.copy(), vec.copy()
            vp[k] += h
            vm[k] -= h
            _, op = taylor_forward(oracle.vec_to_params(vp, p), x, co)
            _, om = taylor_forward(oracle.vec_to_params(vm, p), x, co)
            fd = (op.operator[0] - om.operator[0]) / (2 * h)
            assert abs(fd - analytic[k]) <= 1e-5 * max(1.0, abs(fd))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_duality_of_forward_and_reverse(self, seed):
        # <v, d(outputs)/d(theta) w> must equal <backward(v), w> for any
        # output seed v and parameter direction w (transpose test)
        rng = np.random.default_rng(seed)
        p = init_params((2, 6, 1), seed % 1000)
        x = rng.uniform(-1, 1, size=(3, 2))
        co = random_coeffs(rng, 2)
        states, _ = taylor_forward(p, x, co)
        seeds = rng.standard_normal((3, 4))
        record = taylor_backward(p, states, seeds, co)
        grads_vec = oracle.flatten_mats(seeded_param_grads(record))
        w_dir = rng.standard_normal(grads_vec.size)
        rhs = float(grads_vec @ w_dir)

        vec = oracle.params_to_vec(p)
        h = 1e-6

        def seeded_outputs(v):
            _, out = taylor_forward(oracle.vec_to_params(v, p), x, co)
            stacked = np.concatenate([out.value[:, None], out.gradient, out.operator[:, None]], axis=1)
            return float(np.sum(seeds * stacked))

        lhs = (seeded_outputs(vec + h * w_dir) - seeded_outputs(vec - h * w_dir)) / (2 * h)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        hidden=st.lists(st.integers(1, 6), max_size=3),
        n=st.integers(1, 9),
    )
    def test_record_has_one_entry_per_linear_layer(self, seed, d, hidden, n):
        # widths [d, 1], [d, h, 1], [d, h, h, 1] and [d, h, h, h, 1], each h drawn on its own
        widths = (d, *hidden, 1)
        rng = np.random.default_rng(seed)
        p = init_params(widths, seed % 1000)
        co = random_coeffs(rng, d)
        states, _ = taylor_forward(p, rng.uniform(-1, 1, (n, d)), co)
        record = taylor_backward(p, states, rng.standard_normal((n, d + 2)), co)
        assert len(record) == len(widths) - 1
        for l, (z, g) in enumerate(record):
            assert (z.shape[0], z.shape[-1]) == (n, widths[l])
            assert g.shape == (n, d + 2, widths[l + 1])

    def test_reverse_pass_derivatives_are_the_forward_bits(self):
        # the reverse pass reads s0 and s1 from the forward pass's states and
        # forms s2 and s3 from them: the same bits as tanh_derivs of the
        # pre-activation, so reusing them alone changes no result
        p = init_params((3, 6, 5, 4, 1), 2)
        x = np.random.default_rng(3).uniform(-1, 1, (11, 3))
        states, _ = taylor_forward(p, x, OperatorCoeffs.laplacian(3))
        for l in range(1, p.n_linear):
            pre, z = states[2 * l - 1], states[2 * l]
            want = tanh_derivs(pre if pre.ndim == 2 else pre[:, 0, :], 3)
            got = taylor._reverse_derivs(z.value, z.slope, Workspace())
            for a, b in zip((got.s0, got.s1, got.s2, got.s3), (want.s0, want.s1, want.s2, want.s3)):
                assert np.array_equal(a, b)

    def test_seed_shape_validation(self):
        p = init_params((2, 4, 1), 0)
        co = OperatorCoeffs.laplacian(2)
        states, _ = taylor_forward(p, np.zeros((2, 2)), co)
        with pytest.raises(ValueError):
            taylor_backward(p, states, np.zeros((2, 3)), co)
