import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import params_to_vec, vec_to_params
from pinnopt import network
from pinnopt.curvature import boundary_pairs, param_grad_matrix
from pinnopt.network import (
    Parameters,
    add_scaled,
    forward_batch,
    init_params,
    layer_blocks,
    tanh_derivs,
    tanh_higher_derivs,
)


class TestArchitecture:
    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            init_params((2,), 0)
        with pytest.raises(ValueError):
            init_params((2, 0, 1), 0)
        with pytest.raises(ValueError):
            init_params((2, 4, 3), 0)  # output must be scalar


class TestInitParams:
    def test_deterministic(self):
        a = init_params((3, 8, 1), 42)
        b = init_params((3, 8, 1), 42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_shapes(self):
        p = init_params((2, 1), 0)
        assert p.weights[0].shape == (1, 2)
        assert p.biases[0].shape == (1,)

    def test_fan_in_uniform_distribution(self):
        # one wide layer gives 10^4+ weight samples with fan-in 64
        p = init_params((64, 200, 1), 7)
        w = p.weights[0].ravel()
        assert w.size >= 10_000
        bound = 1.0 / 8.0
        assert np.max(np.abs(w)) <= bound
        # sample mean within 3 sigma of zero for uniform(-b, b)
        sigma_mean = bound / np.sqrt(3.0) / np.sqrt(w.size)
        assert abs(w.mean()) <= 3.0 * sigma_mean


class TestForward:
    def test_single_linear_hand_computed(self):
        p = Parameters([np.array([[1.0, 2.0]])], [np.zeros(1)])
        u, zs = oracle.forward(p, np.array([3.0, 4.0]))
        assert u == pytest.approx(11.0, abs=1e-15)
        assert len(zs) == 1

    def test_zero_parameters_give_zero_output(self):
        p = init_params((3, 5, 5, 1), 0)
        p = Parameters([np.zeros_like(w) for w in p.weights], [np.zeros_like(b) for b in p.biases])
        for x in np.random.default_rng(1).standard_normal((4, 3)):
            u, _ = oracle.forward(p, x)
            assert u == 0.0

    def test_matches_scalar_reimplementation(self):
        p = init_params((2, 3, 1), 5)
        x = np.array([0.3, -0.7])
        # independent loop over units
        h = [np.tanh(sum(p.weights[0][i, j] * x[j] for j in range(2)) + p.biases[0][i]) for i in range(3)]
        u_ref = sum(p.weights[1][0, i] * h[i] for i in range(3)) + p.biases[1][0]
        u, _ = oracle.forward(p, x)
        assert u == pytest.approx(u_ref, abs=1e-12)

    def test_batch_matches_single(self):
        p = init_params((2, 6, 1), 3)
        pts = np.random.default_rng(2).standard_normal((5, 2))
        u, _ = forward_batch(p, pts)
        for i, x in enumerate(pts):
            assert u[i] == pytest.approx(oracle.forward(p, x)[0], abs=1e-14)

    def test_dimension_mismatch(self):
        p = init_params((2, 4, 1), 0)
        with pytest.raises(ValueError):
            oracle.forward(p, np.zeros(3))


class TestActivationDerivs:
    def test_tanh_taylor_coefficients_at_zero(self):
        d = tanh_derivs(np.zeros(1))
        assert d.s0[0] == 0.0
        assert d.s1[0] == 1.0
        assert d.s2[0] == 0.0
        assert d.s3[0] == -2.0

    def test_saturation(self):
        d = tanh_derivs(np.array([20.0]))
        assert d.s0[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(d.s1[0]) < 1e-12
        assert abs(d.s2[0]) < 1e-12
        assert abs(d.s3[0]) < 1e-12

    def test_each_derivative_matches_finite_difference(self):
        z = np.array([0.5])
        h = 1e-5
        d = tanh_derivs(z)
        chain = [lambda t: tanh_derivs(t).s0, lambda t: tanh_derivs(t).s1,
                 lambda t: tanh_derivs(t).s2]
        for level, fn in enumerate(chain):
            fd = (fn(z + h) - fn(z - h)) / (2 * h)
            got = (d.s1, d.s2, d.s3)[level]
            assert abs(fd[0] - got[0]) <= 1e-6 * max(1.0, abs(got[0]))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5.0, 5.0))
    def test_tanh_identities(self, z):
        d = tanh_derivs(np.array([z]))
        assert abs(d.s1[0] - (1 - d.s0[0] ** 2)) <= 1e-12
        assert abs(d.s2[0] - (-2 * d.s0[0] * d.s1[0])) <= 1e-12
        assert abs(d.s3[0] - (-2 * d.s1[0] ** 2 - 2 * d.s0[0] * d.s2[0])) <= 1e-12


    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_lower_orders_leave_the_rest_unset(self, order):
        z = np.linspace(-3.0, 3.0, 13)
        full = tanh_derivs(z)
        d = tanh_derivs(z, order=order)
        fields = (d.s0, d.s1, d.s2, d.s3)
        for level, (got, want) in enumerate(zip(fields, (full.s0, full.s1, full.s2, full.s3))):
            if level <= order:
                assert np.array_equal(got, want)
            else:
                assert got is None

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            tanh_derivs(np.zeros(1), order=4)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_higher_derivs_from_value_and_slope_are_the_same_bits(self, order):
        # the reverse pass takes s0 and s1 from the forward pass's kept states
        # and forms only s2 and s3 again
        z = np.random.default_rng(4).standard_normal((9, 7)) * 4.0
        full = tanh_derivs(z, 3)
        first = tanh_derivs(z, 1)
        d = tanh_higher_derivs(first.s0.copy(), first.s1.copy(), order)
        for got, want in zip((d.s0, d.s1, d.s2, d.s3)[: order + 1], (full.s0, full.s1, full.s2, full.s3)):
            assert np.array_equal(got, want)
        assert (d.s2, d.s3)[order - 1 :] == (None,) * (3 - order)


class TestFlattening:
    # widths (2, 3, 1): blocks (h_in + 1, h_out) = (3, 3) and (4, 1), D = 13
    SHAPES = [(3, 3), (4, 1)]

    def test_round_trip(self):
        p = init_params((3, 4, 1), 11)
        v = params_to_vec(p)
        q = vec_to_params(v, p)
        for a, b in zip(p.weights, q.weights):
            assert np.array_equal(a, b)
        for a, b in zip(p.biases, q.biases):
            assert np.array_equal(a, b)

    def test_column_stacked_order(self):
        # [W | b] with W = [[1, 2], [3, 4]], b = [5, 6]: columns stack as
        # (1, 3), (2, 4), (5, 6)
        p = Parameters([np.array([[1.0, 2.0], [3.0, 4.0]])], [np.array([5.0, 6.0])])
        # widths (2, 2) violate init_params' scalar-output check,
        # but Parameters itself only checks shape consistency
        v = params_to_vec(p)
        assert np.array_equal(v, [1.0, 3.0, 2.0, 4.0, 5.0, 6.0])
        # the layer's block is [W | b]^T
        (block,) = layer_blocks(v, [(3, 2)])
        assert np.array_equal(block, [[1.0, 3.0], [2.0, 4.0], [5.0, 6.0]])

    def test_add_scaled(self):
        # a vector's blocks follow the oracle's column-stacked order layer by layer
        p = init_params((2, 3, 1), 0)
        q = init_params((2, 3, 1), 1)
        r = add_scaled(p, params_to_vec(q), 1.0)
        for a, b, c in zip(p.weights + p.biases, q.weights + q.biases, r.weights + r.biases):
            assert np.array_equal(c, a + b)
        half = add_scaled(p, np.ones(p.n_params), 0.5)
        assert np.array_equal(half.weights[0], p.weights[0] + 0.5)
        assert np.array_equal(half.biases[1], p.biases[1] + 0.5)

    def test_writing_a_block_writes_the_vector(self):
        vec = np.zeros(13)
        first, second = layer_blocks(vec, self.SHAPES)
        first[...] = np.arange(9.0).reshape(3, 3)
        second[2, 0] = 7.0
        assert np.array_equal(vec[:9], np.arange(9.0))
        assert vec[9 + 2] == 7.0
        assert np.count_nonzero(vec[9:]) == 1

    def test_length_mismatch_raises(self):
        for size in (12, 14):
            with pytest.raises(ValueError, match="parameter count 13"):
                layer_blocks(np.zeros(size), self.SHAPES)

    def test_rows_get_per_sample_blocks(self):
        rows = np.random.default_rng(0).standard_normal((4, 13))
        blocks = layer_blocks(rows, self.SHAPES)
        assert [b.shape for b in blocks] == [(4, 3, 3), (4, 4, 1)]
        for n in range(4):
            for got, want in zip(blocks, layer_blocks(rows[n], self.SHAPES)):
                assert np.array_equal(got[n], want)
        blocks[1][2] = 0.0  # writing a sample's block writes its row
        assert np.count_nonzero(rows[2, 9:]) == 0
        assert np.count_nonzero(rows[[0, 1, 3], 9:]) == 12


class TestParameterVector:
    @staticmethod
    def random_params(widths, seed) -> Parameters:
        rng = np.random.default_rng(seed)
        return Parameters(
            [rng.standard_normal((h_out, h_in)) for h_in, h_out in zip(widths[:-1], widths[1:])],
            [rng.standard_normal(h_out) for h_out in widths[1:]],
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.data())
    def test_views_write_the_oracle_index(self, widths, data):
        p = self.random_params(widths, data.draw(st.integers(0, 2**32 - 1)))
        assert p.vector.tobytes() == params_to_vec(p).tobytes()
        l = data.draw(st.integers(0, len(widths) - 2))
        i = data.draw(st.integers(0, widths[l + 1] - 1))
        j = data.draw(st.integers(0, widths[l]))  # j == h_in picks the bias
        # the oracle's index of the entry: the one nonzero of a one-hot flattening
        one_hot = Parameters([np.zeros_like(w) for w in p.weights], [np.zeros_like(b) for b in p.biases])
        entry = one_hot.biases[l][i:i + 1] if j == widths[l] else one_hot.weights[l][i, j:j + 1]
        entry[0] = 1.0
        (index,) = np.flatnonzero(params_to_vec(one_hot))
        before = p.vector.copy()
        if j == widths[l]:
            p.biases[l][i] += 1.0
        else:
            p.weights[l][i, j] += 1.0
        assert np.array_equal(np.flatnonzero(p.vector != before), [index])
        assert p.vector.tobytes() == params_to_vec(p).tobytes()

    def test_deepcopy_keeps_the_views(self):
        import copy

        p = self.random_params((3, 4, 2, 1), 0)
        q = copy.deepcopy(p)
        assert not np.shares_memory(q.vector, p.vector)
        q.weights[1][1, 3] = 7.0
        q.biases[0][2] = -7.0
        assert q.vector.tobytes() == params_to_vec(q).tobytes()
        assert p.vector.tobytes() == params_to_vec(p).tobytes()
        assert np.count_nonzero(q.vector != p.vector) == 2

    def test_copy_and_add_scaled_are_fresh(self):
        p = self.random_params((3, 4, 2, 1), 1)
        before = p.vector.copy()
        step = np.random.default_rng(2).standard_normal(p.n_params)
        for q in (p.copy(), add_scaled(p, step, 0.5)):
            assert not np.shares_memory(q.vector, p.vector)
            for a, b in zip(q.weights + q.biases, p.weights + p.biases):
                assert not np.shares_memory(a, b)
        assert np.array_equal(p.vector, before)
        assert np.array_equal(add_scaled(p, step, 0.5).vector, before + 0.5 * step)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        p = init_params((2, 5, 1), 9)
        pts = np.random.default_rng(3).uniform(-1, 1, size=(4, 2))
        u, inputs = forward_batch(p, pts)
        grads = network.backward_batch(p, inputs)
        mats = [param_grad_matrix(z, g, np.ones(4)).T for z, g in boundary_pairs(inputs, grads)]
        vec = params_to_vec(p)
        analytic = oracle.flatten_mats(mats)
        h = 1e-6
        for k in range(vec.size):
            vp, vm = vec.copy(), vec.copy()
            vp[k] += h
            vm[k] -= h
            up, _ = forward_batch(vec_to_params(vp, p), pts)
            um, _ = forward_batch(vec_to_params(vm, p), pts)
            fd = (up.sum() - um.sum()) / (2 * h)
            assert abs(fd - analytic[k]) <= 1e-8 * max(1.0, abs(fd))
