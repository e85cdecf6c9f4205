import numpy as np
import pytest

import oracle
from pinnopt import curvature, harness, network, optim, pde
from pinnopt.network import Parameters, init_params
from pinnopt.optim import (
    LineSearchError,
    OptimizerConfig,
    evaluate_batch,
    init_train_state,
    line_search,
    optimizer_step,
    solve_quadratic_model,
)


@pytest.fixture
def poisson():
    return pde.make_problem("poisson2d_sin")


def small_state(kind, seed=0, widths=(2, 6, 1), **kwargs):
    params = init_params(widths, seed)
    return init_train_state(params, OptimizerConfig(optimizer=kind, **kwargs))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(optimizer="newton")
        with pytest.raises(ValueError):
            OptimizerConfig(optimizer="kfac", damping=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(optimizer="sgd", lr=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(optimizer="kfac", ema=-0.1, damping=1e-2)
        with pytest.raises(ValueError):
            OptimizerConfig(optimizer="sgd", lr=0.1, momentum=-1.0)
        for kind in optim.OPTIMIZER_KINDS:
            with pytest.raises(ValueError, match="init_mode"):
                OptimizerConfig(optimizer=kind, init_mode="bogus")
            with pytest.raises(ValueError, match="rcond"):
                OptimizerConfig(optimizer=kind, rcond=-1e-10)
            with pytest.raises(ValueError, match="rcond"):
                OptimizerConfig(optimizer=kind, rcond=float("nan"))
            OptimizerConfig(optimizer=kind, init_mode="zero", rcond=0.0)

    def test_grid(self):
        grid = optim.LINE_SEARCH_GRID
        assert len(grid) == 31
        assert grid[0] == 2.0**-30
        assert grid[-1] == 1.0


class TestUpdatePath:
    @pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
    def test_step_applies_the_update_it_reports(self, poisson, kind):
        # optimizer_step applies the kind's update once and reports its (alpha, mu)
        import copy

        cfg = dict(kfac={"momentum": 0.9}, sgd={"lr": 0.05, "momentum": 0.5}, adam={"lr": 0.01})
        state = small_state(kind, damping=1e-3, **cfg.get(kind, {}))
        batch = pde.sample_batch(poisson, 12, 8, seed=9)
        for step in range(3):
            old = state.params.copy()
            ref = copy.deepcopy(state)
            ev = evaluate_batch(ref.params, batch, poisson, ref.workspace)
            update, alpha, mu = optim._STEP_FNS[kind](ref, ev, batch, poisson)
            info = optimizer_step(state, batch, poisson)
            assert state.step == step + 1
            assert np.array_equal(state.prev_update, update)
            new = network.add_scaled(old, state.prev_update, 1.0)
            for got, want in zip(state.params.weights + state.params.biases, new.weights + new.biases):
                assert np.array_equal(got, want)
            assert (info.alpha, info.mu) == (alpha, mu)
            if kind in ("kfac", "engd"):
                assert info.alpha in optim.LINE_SEARCH_GRID
            if kind in ("sgd", "adam"):
                assert info.alpha == state.config.lr
            if kind == "kfac_star":
                # the model's pair: alpha only on the first step, then both
                assert (info.mu == 0.0) == (step == 0)
            else:
                assert info.mu == {"kfac": 0.9, "sgd": 0.5}.get(kind, 0.0)

    def test_deepcopy_keeps_the_parameter_views(self):
        import copy

        state = small_state("kfac", widths=(2, 6, 3, 1), damping=1e-3)
        ref = copy.deepcopy(state)
        ref.params.weights[2][0, 1] = 4.0
        ref.params.biases[1][2] = -4.0
        assert ref.params.vector.tobytes() == oracle.params_to_vec(ref.params).tobytes()
        assert state.params.vector.tobytes() == oracle.params_to_vec(state.params).tobytes()
        assert np.count_nonzero(ref.params.vector != state.params.vector) == 2

    @pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
    def test_one_evaluation_per_step(self, poisson, monkeypatch, kind):
        # the update rules read the step's one BatchEval; none evaluates the batch again
        calls = []
        inner = optim.evaluate_batch

        def counting(*args, **kwargs):
            calls.append(None)
            return inner(*args, **kwargs)

        monkeypatch.setattr(optim, "evaluate_batch", counting)
        state = small_state(kind, damping=1e-3)
        batch = pde.sample_batch(poisson, 12, 8, seed=9)
        for step in range(3):
            optimizer_step(state, batch, poisson)
            assert len(calls) == step + 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_leaves_the_state(self, poisson, monkeypatch):
        state = small_state("sgd", lr=0.1)
        batch = pde.sample_batch(poisson, 12, 6, seed=2)
        optimizer_step(state, batch, poisson)
        vector, prev = state.params.vector.copy(), state.prev_update.copy()

        def infinite_update(state, ev, batch, problem):
            return np.full(ev.grad.shape, np.inf), 1.0, 0.0

        monkeypatch.setitem(optim._STEP_FNS, "sgd", infinite_update)
        with pytest.raises(FloatingPointError):
            optimizer_step(state, batch, poisson)
        assert np.array_equal(state.params.vector, vector)
        assert np.array_equal(state.prev_update, prev)
        assert state.step == 1

    @pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
    def test_non_finite_loss_stops_before_the_rule(self, poisson, monkeypatch, kind):
        # a non-finite batch loss raises before the kind's update rule runs,
        # so no factor, moment, parameter or counter changes
        import copy
        import dataclasses

        state = small_state(kind, damping=1e-3)
        batch = pde.sample_batch(poisson, 12, 6, seed=2)
        optimizer_step(state, batch, poisson)
        before = copy.deepcopy(state)
        inner = optim.evaluate_batch
        monkeypatch.setattr(
            optim, "evaluate_batch", lambda *args: dataclasses.replace(inner(*args), loss_boundary=np.inf)
        )
        calls = []
        monkeypatch.setitem(optim._STEP_FNS, kind, lambda *args: calls.append(None))
        with pytest.raises(FloatingPointError, match="loss is non-finite"):
            optimizer_step(state, batch, poisson)
        assert calls == []
        assert np.array_equal(state.params.vector, before.params.vector)
        assert np.array_equal(state.prev_update, before.prev_update)
        assert state.step == before.step == 1
        if kind in ("kfac", "kfac_star"):
            for name in ("a_interior", "b_interior", "a_boundary", "b_boundary"):
                for got, want in zip(getattr(state.kfac, name), getattr(before.kfac, name)):
                    assert np.array_equal(got, want)

    def test_line_search_error_is_a_floating_point_error(self):
        assert issubclass(LineSearchError, FloatingPointError)


class TestLineSearch:
    def grid(self):
        return optim.LINE_SEARCH_GRID

    def test_quadratic_minimized_at_one(self):
        # loss(theta) = (theta - 1)^2 / 2 from theta = 0 along direction 1:
        # the 2^0 grid point is the exact minimizer
        p = Parameters([np.array([[0.0]])], [np.array([0.0])])

        def loss_fn(q):
            return 0.5 * (q.weights[0][0, 0] - 1.0) ** 2

        alpha, loss = line_search(lambda qs: [loss_fn(q) for q in qs], p, np.array([1.0, 0.0]), self.grid())
        assert alpha == 1.0
        assert loss == 0.0

    def test_zero_direction_returns_smallest_step(self):
        p = Parameters([np.array([[0.5]])], [np.array([0.0])])

        def loss_fn(q):
            return float(q.weights[0][0, 0] ** 2)

        alpha, _ = line_search(lambda qs: [loss_fn(q) for q in qs], p, np.zeros(2), self.grid())
        assert alpha == 2.0**-30

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2))
        h = a @ a.T + np.eye(2)
        theta = rng.standard_normal(2)
        direction = rng.standard_normal(2)
        p = Parameters([theta[None, :]], [np.zeros(1)])
        vec = np.array([direction[0], direction[1], 0.0])

        def loss_fn(q):
            v = q.weights[0][0]
            return float(0.5 * v @ h @ v)

        alpha, _ = line_search(lambda qs: [loss_fn(q) for q in qs], p, vec, self.grid())
        scan = [(float(0.5 * (theta + a_ * direction) @ h @ (theta + a_ * direction)), a_) for a_ in self.grid()]
        best = min(scan)[1]
        assert alpha == best

    def test_all_nonfinite_raises(self):
        p = Parameters([np.array([[0.0]])], [np.array([0.0])])

        def loss_fn(q):
            return float("nan")

        with pytest.raises(LineSearchError):
            line_search(lambda qs: [loss_fn(q) for q in qs], p, np.ones(2), self.grid())


    def test_output_only_loss_picks_the_same_step(self, tmp_path, monkeypatch):
        # 20 kfac steps of the poisson2d benchmark config: at every step the
        # line search over the loss-only evaluation (output-only forward)
        # returns the alpha that the loss from the full forward pass returns
        line_search_fn = optim.line_search
        evaluate_losses = optim.evaluate_losses
        alphas = []
        scored = {}

        def spying_evaluate_losses(candidates, batch, problem, workspace=None):
            scored.update(problem=problem, batch=batch)
            return evaluate_losses(candidates, batch, problem, workspace)

        def checking_line_search(loss_fn, params, direction, grid):
            alpha, loss = line_search_fn(loss_fn, params, direction, grid)
            problem, batch = scored["problem"], scored["batch"]

            def reference_loss(p):
                loss_int, _, _, _ = pde.interior_loss_and_residuals(problem, p, batch)
                return loss_int + pde.boundary_loss(problem, p, batch)[0]

            ref_alpha, ref_loss = line_search_fn(
                lambda qs: [reference_loss(q) for q in qs], params, direction, grid
            )
            assert alpha == ref_alpha
            assert abs(loss - ref_loss) <= 1e-12 * ref_loss
            alphas.append(alpha)
            return alpha, loss

        monkeypatch.setattr(optim, "evaluate_losses", spying_evaluate_losses)
        monkeypatch.setattr(optim, "line_search", checking_line_search)
        cfg = harness.RunConfig.from_dict(
            dict(
                problem="poisson2d_sin", widths=[2, 64, 1], optimizer="kfac", lr=1e-3,
                momentum=0.9, ema=0.9, damping=1e-5, init_mode="identity", n_interior=900,
                n_boundary=120, resample_every=0, max_steps=20, eval_every=5,
                n_eval_points=2000, seed=0, output_dir=str(tmp_path / "run"),
            )
        )
        assert not harness.run_training(cfg).diverged
        assert len(alphas) == 20
        assert len(set(alphas)) > 1


class TestKfacStep:
    def test_momentum_recurrence(self, poisson):
        # with momentum 1 and a fixed batch, the second direction contains
        # the first update exactly once
        state = small_state("kfac", damping=1e-2, ema=0.5, momentum=1.0)
        batch = pde.sample_batch(poisson, 10, 6, seed=0)
        optimizer_step(state, batch, poisson)
        first_update = state.prev_update.copy()
        params_before = state.params.copy()
        kf = state.kfac
        ev = evaluate_batch(state.params, batch, poisson)
        import copy

        kf2 = copy.deepcopy(kf)
        curvature.interior_factor_update(kf2, state.params, ev.interior)
        curvature.boundary_factor_update(kf2, ev.boundary)
        delta = curvature.precondition_gradient(kf2, ev.grad)
        info = optimizer_step(state, batch, poisson)
        expect = oracle.vec_to_params(info.alpha * (delta + first_update), state.params)
        for l in range(state.params.n_linear):
            got = state.params.weights[l] - params_before.weights[l]
            assert np.max(np.abs(got - expect.weights[l])) <= 1e-12

    def test_loss_decreases_over_training(self, poisson):
        state = small_state("kfac", widths=(2, 12, 1), damping=1e-3, ema=0.9, momentum=0.9)
        batch = pde.sample_batch(poisson, 40, 16, seed=1)
        first = optimizer_step(state, batch, poisson).loss_total
        last = None
        for _ in range(49):
            last = optimizer_step(state, batch, poisson).loss_total
        assert last < first

    def test_large_damping_follows_gradient(self, poisson):
        # huge damping makes the preconditioner a multiple of the identity
        state = small_state("kfac", damping=1e6, ema=0.0, momentum=0.0)
        batch = pde.sample_batch(poisson, 10, 6, seed=2)
        ev = evaluate_batch(state.params, batch, poisson)
        kf = state.kfac
        curvature.interior_factor_update(kf, state.params, ev.interior)
        curvature.boundary_factor_update(kf, ev.boundary)
        dv = curvature.precondition_gradient(kf, ev.grad)
        gv = ev.grad
        cos = -(dv @ gv) / (np.linalg.norm(dv) * np.linalg.norm(gv))
        assert cos >= 0.999

    def test_parameters_stay_finite(self, poisson):
        state = small_state("kfac", damping=1e-2, ema=0.9, momentum=0.9)
        batch = pde.sample_batch(poisson, 12, 8, seed=3)
        for _ in range(5):
            optimizer_step(state, batch, poisson)
            for w in state.params.weights:
                assert np.all(np.isfinite(w))


class TestKfacStar:
    def test_alpha_only_first_step(self, poisson):
        # with no previous update the model reduces to the 1x1 solve
        state = small_state("kfac_star", damping=1e-2, ema=0.0)
        batch = pde.sample_batch(poisson, 10, 6, seed=4)
        ev = evaluate_batch(state.params, batch, poisson)
        import copy

        kf = copy.deepcopy(state.kfac)
        curvature.interior_factor_update(kf, state.params, ev.interior)
        curvature.boundary_factor_update(kf, ev.boundary)
        dv = curvature.precondition_gradient(kf, ev.grad)
        gv = ev.grad
        g_dv = oracle.gramian_vec(state.params, batch, poisson, dv)
        lam = state.config.damping
        expect_alpha = -float(dv @ gv) / float(dv @ g_dv + lam * dv @ dv)
        info = optimizer_step(state, batch, poisson)
        assert info.mu == 0.0
        assert info.alpha == pytest.approx(expect_alpha, rel=1e-10)

    def test_rayleigh_solution_identity_gramian(self):
        # G = I, lam = 0: alpha = -<Delta, g> / <Delta, Delta>
        rng = np.random.default_rng(5)
        dv = rng.standard_normal(4)
        gv = rng.standard_normal(4)
        m11 = float(dv @ dv)
        alpha, mu = solve_quadratic_model([[m11]], [float(dv @ gv)])
        assert alpha == pytest.approx(-float(dv @ gv) / float(dv @ dv))
        assert mu == 0.0

    def test_parallel_directions_fall_back(self):
        # Delta parallel to the previous update makes the 2x2 system
        # singular; the alpha-only path must be taken
        d = np.array([1.0, 2.0])
        m11 = float(d @ d)
        k = 2.5
        m12, m22 = k * m11, k * k * m11
        rhs1, rhs2 = 3.0, 3.0 * k
        alpha, mu = solve_quadratic_model([[m11, m12], [m12, m22]], [rhs1, rhs2])
        assert mu == 0.0
        assert alpha == pytest.approx(-rhs1 / m11)

    def test_stationarity_of_quadratic_model(self, poisson):
        # the solved (alpha, mu) must zero the model gradient
        state = small_state("kfac_star", seed=3, damping=1e-3, ema=0.5)
        batch = pde.sample_batch(poisson, 12, 6, seed=6)
        optimizer_step(state, batch, poisson)  # builds a previous update
        ev = evaluate_batch(state.params, batch, poisson)
        import copy

        kf = copy.deepcopy(state.kfac)
        curvature.interior_factor_update(kf, state.params, ev.interior)
        curvature.boundary_factor_update(kf, ev.boundary)
        dv = curvature.precondition_gradient(kf, ev.grad)
        pv = state.prev_update
        gv = ev.grad
        lam = state.config.damping
        g_dv = oracle.gramian_vec(state.params, batch, poisson, dv)
        g_pv = oracle.gramian_vec(state.params, batch, poisson, pv)
        m11 = float(dv @ g_dv + lam * dv @ dv)
        m12 = float(dv @ g_pv + lam * dv @ pv)
        m22 = float(pv @ g_pv + lam * pv @ pv)
        info = optimizer_step(state, batch, poisson)
        resid = np.array(
            [
                m11 * info.alpha + m12 * info.mu + float(dv @ gv),
                m12 * info.alpha + m22 * info.mu + float(pv @ gv),
            ]
        )
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(gv)

    @pytest.mark.parametrize(
        "problem_name, problem_params, widths",
        [
            ("log_fokker_planck", {}, (10, 64, 64, 1)),
            ("poisson_norm2", {"dim": 100}, (100, 64, 1)),
        ],
        ids=["fokker10d", "poisson100d"],
    )
    def test_model_matches_gramian_vec_model(self, problem_name, problem_params, widths):
        # the benchmark's kfac_star configs at reduced N: (alpha, mu) from J [Delta, prev]
        # against the model built from Gramian-vector products through the full rows.
        # The 2x2 model's condition number (up to 2e9 here) scales the last-bit
        # differences of its entries; with 40 points on poisson100d it reaches 6e10
        # and the two solves differ by 1e-10.
        import copy

        problem = pde.make_problem(problem_name, **problem_params)
        for seed in range(5):
            state = small_state("kfac_star", seed=seed, widths=widths, damping=1e-4, ema=0.99)
            for step in range(10):
                batch = pde.sample_batch(problem, 100, 50, seed=100 * seed + step)
                ref = copy.deepcopy(state)
                ev = evaluate_batch(ref.params, batch, problem, ref.workspace)
                dv = optim._kfac_direction(ref, ev)
                pv = ref.prev_update
                gv = ev.grad
                lam = ref.config.damping
                g_dv = oracle.gramian_vec(ref.params, batch, problem, dv)
                g_pv = oracle.gramian_vec(ref.params, batch, problem, pv)
                m12 = float(dv @ g_pv + lam * dv @ pv)
                model = [[float(dv @ g_dv + lam * dv @ dv), m12], [m12, float(pv @ g_pv + lam * pv @ pv)]]
                rhs = [float(dv @ gv), float(pv @ gv)]
                if step == 0:  # prev is zero: Delta alone
                    model, rhs = [model[0][:1]], rhs[:1]
                alpha, mu = solve_quadratic_model(model, rhs)
                info = optimizer_step(state, batch, problem)
                assert info.alpha == pytest.approx(alpha, rel=1e-10), (seed, step)
                assert info.mu == pytest.approx(mu, rel=1e-10), (seed, step)

    def test_step_never_builds_full_rows(self, poisson, monkeypatch):
        def refuse(record):
            raise AssertionError("full Jacobian rows built")

        monkeypatch.setattr(curvature, "_jacobian_rows", refuse)
        batch = pde.sample_batch(poisson, 10, 6, seed=4)
        state = small_state("kfac_star", widths=(2, 5, 4, 1), damping=1e-3)
        for _ in range(3):
            optimizer_step(state, batch, poisson)
        # dense ENGD is the optimizer that still needs them
        with pytest.raises(AssertionError, match="full Jacobian rows"):
            optimizer_step(small_state("engd", widths=(2, 5, 4, 1)), batch, poisson)


class TestEngd:
    def test_linear_least_squares_single_step(self, poisson):
        # boundary-only regression with a linear net is a linear
        # least-squares problem: one Gauss-Newton step with alpha = 1
        # reaches the least-norm solution
        rng = np.random.default_rng(7)
        params = Parameters([rng.standard_normal((1, 2))], [rng.standard_normal(1)])
        xb = rng.uniform(0, 1, size=(8, 2))
        w_true = np.array([0.7, -0.3])
        targets = xb @ w_true + 0.25
        batch = pde.Batch(np.zeros((0, 2)), xb, targets, np.zeros(0))
        state = init_train_state(params, OptimizerConfig(optimizer="engd", ema=0.0, damping=0.0))
        optimizer_step(state, batch, poisson)
        u, _ = network.forward_batch(state.params, xb)
        assert np.max(np.abs(u - targets)) <= 1e-8

    def test_descent_direction(self, poisson):
        state = small_state("engd", seed=5, ema=0.0, damping=1e-6)
        batch = pde.sample_batch(poisson, 10, 6, seed=8)
        ev = evaluate_batch(state.params, batch, poisson)
        gram = oracle.exact_gramian(state.params, batch, poisson) + 1e-6 * np.eye(state.params.n_params)
        from pinnopt.linalg import pinv_psd

        gv = ev.grad
        direction = -pinv_psd(gram, 1e-10) @ gv
        assert direction @ gv < 0.0

    def test_gramian_ema_config(self, poisson):
        state = small_state("engd", ema=0.9, init_mode="identity")
        assert state.gramian_ema is not None
        assert np.array_equal(state.gramian_ema, np.eye(state.params.n_params))
        batch = pde.sample_batch(poisson, 6, 4, seed=9)
        optimizer_step(state, batch, poisson)
        assert not np.array_equal(state.gramian_ema, np.eye(state.params.n_params))

    def test_smoke_training_100x(self, poisson):
        state = small_state("engd", widths=(2, 10, 1), ema=0.0, damping=0.0)
        batch = pde.sample_batch(poisson, 30, 12, seed=10)
        first = optimizer_step(state, batch, poisson).loss_total
        for _ in range(99):
            info = optimizer_step(state, batch, poisson)
        assert info.loss_total <= first / 100.0

    def test_dense_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(curvature, "DENSE_GRAMIAN_CAP", 10)
        with pytest.raises(ValueError, match="exceed the cap"):
            small_state("engd")


class TestFirstOrder:
    def test_sgd_zero_gradient_fixed_point(self, poisson):
        # zero parameters solve the harmonic problem with zero targets on
        # a zero-forcing batch: gradient vanishes and sgd stays put
        problem = pde.make_problem("poisson_harmonic_mixed")
        p = init_params((10, 4, 1), 0)
        p = Parameters([np.zeros_like(w) for w in p.weights], [np.zeros_like(b) for b in p.biases])
        x = np.random.default_rng(0).uniform(0, 1, (4, 10))
        batch = pde.Batch(x, np.zeros((1, 10)), np.zeros(1), problem.source(x))
        state = init_train_state(p, OptimizerConfig(optimizer="sgd", lr=0.1))
        optimizer_step(state, batch, problem)
        for w in state.params.weights:
            assert np.array_equal(w, np.zeros_like(w))

    def test_sgd_contraction_on_quadratic(self, poisson):
        # boundary-only quadratic in the bias: theta' = (1 - lr) theta for
        # loss theta^2 / 2 (single boundary point at the origin, target 0,
        # so the weights receive no gradient)
        p = Parameters([np.zeros((1, 2))], [np.array([1.0])])
        batch = pde.Batch(np.zeros((0, 2)), np.zeros((1, 2)), np.zeros(1), np.zeros(0))
        state = init_train_state(p, OptimizerConfig(optimizer="sgd", lr=0.1, momentum=0.0))
        for t in range(1, 4):
            optimizer_step(state, batch, poisson)
            assert state.params.biases[0][0] == pytest.approx(0.9**t, abs=1e-14)

    def test_adam_first_step_formula(self, poisson):
        # unit gradient: first update is -lr / (1 + eps-correction)
        p = Parameters([np.zeros((1, 2))], [np.array([1.0])])
        batch = pde.Batch(np.zeros((0, 2)), np.array([[0.0, 0.0]]), np.zeros(1), np.zeros(0))
        lr, eps = 1e-3, 1e-8
        state = init_train_state(p, OptimizerConfig(optimizer="adam", lr=lr))
        optimizer_step(state, batch, poisson)
        # gradient of (b - 0)^2/2 at b=1 is exactly 1
        expect = 1.0 - lr * 1.0 / (1.0 + eps)
        assert state.params.biases[0][0] == pytest.approx(expect, abs=1e-12)

    def test_adam_loss_decreases(self, poisson):
        state = small_state("adam", widths=(2, 8, 1), lr=3e-3)
        batch = pde.sample_batch(poisson, 30, 12, seed=11)
        first = optimizer_step(state, batch, poisson).loss_total
        for _ in range(200):
            info = optimizer_step(state, batch, poisson)
        assert info.loss_total < first
