import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def next_direction(state, batch, problem):
    """``(Delta, factors, ev)`` of the next Kronecker step, from a copy of ``state.memory``
    updated and solved with the settings ``state.config`` holds now."""
    ev = evaluate_batch(state.params, batch, problem)
    kf, cfg = copy.deepcopy(state.memory), state.config
    curvature.interior_factor_update(kf, ev.interior, cfg.ema)
    curvature.boundary_factor_update(kf, ev.boundary, cfg.ema)
    return curvature.precondition_gradient(kf, ev.grad, cfg.damping), kf, ev


def memory_arrays(memory) -> list:
    """The arrays of a kind's ``TrainState.memory``, in order: a KfacState's
    factors, adam's two moments, engd's moving average; none for None."""
    if memory is None:
        return []
    if isinstance(memory, np.ndarray):
        return [memory]
    if isinstance(memory, curvature.KfacState):
        return [a for f in dataclasses.fields(memory) for a in getattr(memory, f.name)]
    return list(memory)


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

    @pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
    def test_each_kinds_range_check(self, kind):
        # the setting a kind requires > 0 comes from its table entry; the other
        # one may be 0, and a negative damping is refused for every kind
        positive = {"kfac": "damping", "kfac_star": "damping", "engd": None, "sgd": "lr", "adam": "lr"}[kind]
        assert optim.KINDS[kind].positive == positive
        for setting in ("damping", "lr"):
            if setting == positive:
                with pytest.raises(ValueError, match=f"^{kind} requires {setting} > 0$"):
                    OptimizerConfig(optimizer=kind, **{setting: 0.0})
            else:
                assert getattr(OptimizerConfig(optimizer=kind, **{setting: 0.0}), setting) == 0.0
        with pytest.raises(ValueError, match="^damping must be >= 0, got -0.001$"):
            OptimizerConfig(optimizer=kind, damping=-1e-3)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("damping", "1e-3"),
            ("lr", None),
            ("rcond", True),
            ("lr", True),
            ("momentum", float("nan")),
            ("momentum", float("inf")),
        ],
        ids=str,
    )
    def test_field_type_checked_when_built_directly(self, field, value):
        # the same check as a RunConfig's: a ValueError naming the field
        with pytest.raises(ValueError, match=f"config field {field} must be"):
            OptimizerConfig(optimizer="kfac", **{field: value})

    def test_grid(self):
        grid = optim.LINE_SEARCH_GRID
        assert len(grid) == 31
        assert grid[0] == 2.0**-30
        assert grid[-1] == 1.0


class TestInitTrainState:
    def test_fields(self):
        # a kind's facts live in its optim.KINDS entry, its own state in the one field memory
        names = [f.name for f in dataclasses.fields(optim.TrainState)]
        assert names == ["params", "config", "step", "prev_update", "prev_alpha", "memory", "workspace"]

    @pytest.mark.parametrize("init_mode", ["zero", "identity"])
    @pytest.mark.parametrize("kind", ["kfac", "kfac_star"])
    def test_kronecker_factors_per_layer(self, kind, init_mode):
        state = small_state(kind, widths=(2, 6, 3, 1), damping=1e-3, init_mode=init_mode)
        kf = state.memory
        assert isinstance(kf, curvature.KfacState)
        fresh = (lambda n: np.zeros((n, n))) if init_mode == "zero" else np.eye
        sizes = {"a": [3, 7, 4], "b": [6, 3, 1]}  # h_in + 1 and h_out of each layer of the net
        for name in ("a_interior", "b_interior", "a_boundary", "b_boundary"):
            factors = getattr(kf, name)
            assert len(factors) == 3
            for factor, size in zip(factors, sizes[name[0]]):
                assert np.array_equal(factor, fresh(size)), (name, size)
        # every factor is its own array: the updates write them one by one
        assert len({id(a) for a in memory_arrays(kf)}) == 12
        assert (state.step, state.prev_alpha) == (0, None)
        assert np.array_equal(state.prev_update, np.zeros(state.params.n_params))

    def test_adam_moments_are_two_separate_zero_vectors(self):
        state = small_state("adam")
        m, v = state.memory
        for moment in (m, v):
            assert moment.shape == (state.params.n_params,)
            assert not moment.any()
        assert not np.shares_memory(m, v)

    @pytest.mark.parametrize("init_mode", ["zero", "identity"])
    def test_engd_moving_average_start(self, init_mode):
        state = small_state("engd", ema=0.9, init_mode=init_mode)
        d = state.params.n_params
        assert np.array_equal(state.memory, np.zeros((d, d)) if init_mode == "zero" else np.eye(d))
        assert small_state("engd", ema=0.0, init_mode=init_mode).memory is None

    def test_sgd_keeps_no_memory(self):
        assert small_state("sgd", momentum=0.9).memory is None


class TestUpdatePath:
    @pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
    def test_step_applies_the_update_it_reports(self, poisson, kind):
        # optimizer_step applies the kind's update once and reports its (alpha, mu)
        cfg = dict(kfac={"momentum": 0.9}, sgd={"lr": 0.05, "momentum": 0.5}, adam={"lr": 0.01})
        state = small_state(kind, damping=1e-3, **cfg.get(kind, {}))
        batch = pde.sample_batch(poisson, 12, 8, seed=9)
        for step in range(3):
            old = state.params.copy()
            ref = copy.deepcopy(state)
            ev = evaluate_batch(ref.params, batch, poisson, ref.workspace)
            update, alpha, mu = optim.KINDS[kind].step(ref, ev, batch, poisson)
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

        monkeypatch.setitem(optim.KINDS, "sgd", dataclasses.replace(optim.KINDS["sgd"], step=infinite_update))
        with pytest.raises(FloatingPointError):
            optimizer_step(state, batch, poisson)
        assert np.array_equal(state.params.vector, vector)
        assert np.array_equal(state.prev_update, prev)
        assert state.step == 1

    @pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
    def test_non_finite_loss_stops_before_the_rule(self, poisson, monkeypatch, kind):
        # a non-finite batch loss raises before the kind's update rule runs,
        # so no factor, moment, moving average, parameter or counter changes
        state = small_state(kind, damping=1e-3)
        batch = pde.sample_batch(poisson, 12, 6, seed=2)
        optimizer_step(state, batch, poisson)
        before = copy.deepcopy(state)
        inner = optim.evaluate_batch
        monkeypatch.setattr(
            optim, "evaluate_batch", lambda *args: dataclasses.replace(inner(*args), loss_boundary=np.inf)
        )
        calls = []
        rule = dataclasses.replace(optim.KINDS[kind], step=lambda *args: calls.append(None))
        monkeypatch.setitem(optim.KINDS, kind, rule)
        with pytest.raises(FloatingPointError, match="loss is non-finite"):
            optimizer_step(state, batch, poisson)
        assert calls == []
        assert np.array_equal(state.params.vector, before.params.vector)
        assert np.array_equal(state.prev_update, before.prev_update)
        assert state.step == before.step == 1
        assert type(state.memory) is type(before.memory)
        got, want = memory_arrays(state.memory), memory_arrays(before.memory)
        assert (len(want) == 0) == (kind == "sgd")
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_line_search_error_is_a_floating_point_error(self):
        assert issubclass(LineSearchError, FloatingPointError)


GRID = optim.LINE_SEARCH_GRID
N_GRID = len(GRID)
NAN, INF = float("nan"), float("inf")


def scripted_search(losses, start):
    """Run the line search on a landscape given by grid index: ``losses[k]`` at ``GRID[k]``.

    The one parameter starts at 0 and moves along direction 1, so a
    candidate's weight is its step size.  Returns ``(result, calls)``, the
    search's result or the exception it raised and the grid indices of each
    ``loss_fn`` call.
    """
    calls = []

    def loss_fn(candidates):
        indices = [GRID.index(q.weights[0][0, 0]) for q in candidates]
        calls.append(indices)
        return [losses[k] for k in indices]

    p = Parameters([np.array([[0.0]])], [np.array([0.0])])
    try:
        return line_search(loss_fn, p, np.array([1.0, 0.0]), GRID, start), calls
    except LineSearchError as exc:
        return exc, calls


def unimodal(low, high, steps):
    """Losses flat at 0 on the grid indices ``low..high`` and rising by ``steps`` away from them."""
    losses = [0.0] * N_GRID
    for k in range(low - 1, -1, -1):
        losses[k] = losses[k + 1] + steps[k]
    for k in range(high + 1, N_GRID):
        losses[k] = losses[k - 1] + steps[k]
    return losses


grid_index = st.integers(0, N_GRID - 1)


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

        for start in (None, 0, 15, N_GRID - 1):
            with pytest.raises(LineSearchError):
                line_search(lambda qs: [loss_fn(q) for q in qs], p, np.ones(2), self.grid(), start)

    @settings(max_examples=200, deadline=None)
    @given(
        bounds=st.tuples(grid_index, grid_index).map(sorted),
        steps=st.lists(st.floats(1e-6, 10.0), min_size=N_GRID, max_size=N_GRID),
        start=grid_index,
    )
    @example(bounds=(0, 0), steps=[1.0] * N_GRID, start=N_GRID - 1)
    @example(bounds=(N_GRID - 1, N_GRID - 1), steps=[1.0] * N_GRID, start=0)
    @example(bounds=(3, 27), steps=[1.0] * N_GRID, start=15)
    @example(bounds=(26, 26), steps=[1.0] * N_GRID, start=26)
    def test_unimodal_window_matches_the_full_grid(self, bounds, steps, start):
        # a loss that falls, stays flat, then rises in the grid index: every start finds the full grid's pick
        losses = unimodal(*bounds, steps)
        full, _ = scripted_search(losses, None)
        assert full == (GRID[bounds[0]], 0.0)
        assert scripted_search(losses, start)[0] == full

    def test_far_minimum_is_reached_by_growing_the_window(self):
        # 5 points around index 20, then 5 and 10 more to the left, each call only the new ones
        losses = unimodal(5, 5, [1.0] * N_GRID)
        result, calls = scripted_search(losses, 20)
        assert result == (GRID[5], 0.0)
        assert calls == [list(range(18, 23)), list(range(13, 18)), list(range(3, 13))]
        # up from index 5, the last growth cut at the grid's end
        result, calls = scripted_search(unimodal(25, 25, [1.0] * N_GRID), 5)
        assert result == (GRID[25], 0.0)
        assert calls == [list(range(3, 8)), list(range(8, 13)), list(range(13, 23)), list(range(23, N_GRID))]

    def test_window_without_finite_loss_falls_back_to_the_grid(self):
        losses = unimodal(25, 25, [1.0] * N_GRID)
        losses[3:8] = [NAN, INF, NAN, -INF, NAN]
        result, calls = scripted_search(losses, 5)
        assert result == (GRID[25], 0.0)
        assert calls == [list(range(3, 8)), [0, 1, 2, *range(8, N_GRID)]]

    @pytest.mark.parametrize("start", [-1, N_GRID])
    def test_start_outside_the_grid_is_refused(self, start):
        with pytest.raises(ValueError, match="start must index the grid"):
            scripted_search([1.0] * N_GRID, start)

    def test_ties_keep_the_smaller_step(self):
        # equal minima inside the window: the smaller step; a flat window grows down to the smallest step
        losses = [1.0] * N_GRID
        losses[14] = losses[16] = 0.5
        assert scripted_search(losses, 15)[0] == (GRID[14], 0.5)
        assert scripted_search([2.0] * N_GRID, 15)[0] == (GRID[0], 2.0)

    @settings(max_examples=300, deadline=None)
    @given(
        losses=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 2.0, NAN, INF]), st.floats(-10.0, 10.0)),
            min_size=N_GRID,
            max_size=N_GRID,
        ),
        start=st.none() | grid_index,
    )
    @example(losses=[NAN] * N_GRID, start=12)
    @example(losses=[1.0] * N_GRID, start=N_GRID - 1)
    @example(losses=[NAN] * 10 + [1.0] + [NAN] * 20, start=30)
    @example(losses=[0.0, NAN, 1.0] * 10 + [2.0], start=1)
    def test_each_candidate_scored_once_and_the_pick_a_local_minimum(self, losses, start):
        result, calls = scripted_search(losses, start)
        scored = [k for call in calls for k in call]
        assert all(calls)
        assert len(scored) == len(set(scored))
        if start is not None and len(scored) < N_GRID:
            # one grid range around the start
            assert sorted(scored) == list(range(min(scored), max(scored) + 1))
            assert start in scored
        finite = {k: losses[k] for k in scored if np.isfinite(losses[k])}
        if not any(np.isfinite(losses)):
            assert isinstance(result, LineSearchError)
            assert len(scored) == N_GRID
            return
        alpha, loss = result
        best = GRID.index(alpha)
        # the least scored loss, at its smallest step, with both grid neighbours scored and no lower
        assert (loss, best) == min((v, k) for k, v in finite.items())
        for k in (best - 1, best + 1):
            if 0 <= k < N_GRID:
                assert k in scored
        if start is None:
            assert len(scored) == N_GRID


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

        def checking_line_search(loss_fn, params, direction, grid, start):
            alpha, loss = line_search_fn(loss_fn, params, direction, grid, start)
            problem, batch = scored["problem"], scored["batch"]

            def reference_loss(p):
                loss_int, _, _, _ = pde.interior_loss_and_residuals(problem, p, batch)
                return loss_int + pde.boundary_loss(problem, p, batch)[0]

            ref_alpha, ref_loss = line_search_fn(
                lambda qs: [reference_loss(q) for q in qs], params, direction, grid, start
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

    def test_windowed_search_cost_on_the_poisson2d_config(self, tmp_path, monkeypatch):
        # 20 kfac steps of the poisson2d benchmark config: step 1 scores the whole grid,
        # every later step one range of grid indices around the previous step size
        line_search_fn = optim.line_search
        evaluate_losses = optim.evaluate_losses
        steps = []

        def spying_evaluate_losses(candidates, batch, problem, workspace=None):
            if steps:  # not the losses of step 0
                steps[-1]["calls"].append(candidates)
            return evaluate_losses(candidates, batch, problem, workspace)

        def spying_line_search(loss_fn, params, direction, grid, start):
            step = dict(calls=[], grid=[network.add_scaled(params, direction, a).vector for a in grid])
            steps.append(step)
            step["alpha"], loss = line_search_fn(loss_fn, params, direction, grid, start)
            return step["alpha"], loss

        monkeypatch.setattr(optim, "evaluate_losses", spying_evaluate_losses)
        monkeypatch.setattr(optim, "line_search", spying_line_search)
        cfg = harness.RunConfig.from_dict(
            dict(
                problem="poisson2d_sin", widths=[2, 64, 1], optimizer="kfac", lr=1e-3,
                momentum=0.9, ema=0.9, damping=1e-5, init_mode="identity", n_interior=900,
                n_boundary=120, resample_every=0, max_steps=20, eval_every=5,
                n_eval_points=2000, seed=0, output_dir=str(tmp_path / "run"),
            )
        )
        assert not harness.run_training(cfg).diverged
        assert len(steps) == 20
        assert [len(c) for c in steps[0]["calls"]] == [N_GRID]
        counts = []
        for prev, step in zip(steps, steps[1:]):
            scored = sorted(
                next(k for k, v in enumerate(step["grid"]) if np.array_equal(v, q.vector))
                for call in step["calls"]
                for q in call
            )
            assert scored == list(range(scored[0], scored[-1] + 1))
            assert GRID.index(prev["alpha"]) in scored
            counts.append(len(scored))
        # measured with LINE_SEARCH_WINDOW 2: a mean of 5.2 on seed 0 (5.2-6.1 on seeds 0-3), at most 10
        assert np.mean(counts) < 8.0


class TestKfacStep:
    def test_momentum_recurrence(self, poisson):
        # with momentum 1 and a fixed batch, the second direction contains
        # the first update exactly once
        state = small_state("kfac", damping=1e-2, ema=0.5, momentum=1.0)
        batch = pde.sample_batch(poisson, 10, 6, seed=0)
        optimizer_step(state, batch, poisson)
        first_update = state.prev_update.copy()
        params_before = state.params.copy()
        delta, _, _ = next_direction(state, batch, poisson)
        info = optimizer_step(state, batch, poisson)
        expect = oracle.vec_to_params(info.alpha * (delta + first_update), state.params)
        for l in range(state.params.n_linear):
            got = state.params.weights[l] - params_before.weights[l]
            assert np.max(np.abs(got - expect.weights[l])) <= 1e-12

    def test_ema_set_after_init_is_used(self, poisson):
        # the factors average with the ema state.config holds at the step, not at init
        state = small_state("kfac", widths=(2, 8, 1), damping=1e-2, ema=0.5, momentum=0.9)
        batch = pde.sample_batch(poisson, 30, 10, seed=0)
        optimizer_step(state, batch, poisson)
        state.config = dataclasses.replace(state.config, ema=0.0)
        prev = state.prev_update
        delta, kf, _ = next_direction(state, batch, poisson)
        info = optimizer_step(state, batch, poisson)
        for name in ("a_interior", "b_interior", "a_boundary", "b_boundary"):
            for got, want in zip(getattr(state.memory, name), getattr(kf, name)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        want = info.alpha * (delta + info.mu * prev)
        assert np.linalg.norm(state.prev_update - want) <= 1e-12 * np.linalg.norm(want)

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
        dv, _, ev = next_direction(state, batch, poisson)
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
        dv, _, ev = next_direction(state, batch, poisson)
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
        dv, _, ev = next_direction(state, batch, poisson)
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

    def test_one_damping_per_step(self, poisson):
        # a damping set on state.config after init reaches the preconditioner
        # as well as the model's damping term
        state = small_state("kfac_star", widths=(2, 8, 1), damping=1e-2, ema=0.5)
        batch = pde.sample_batch(poisson, 30, 10, seed=0)
        optimizer_step(state, batch, poisson)
        state.config = dataclasses.replace(state.config, damping=1.0)
        prev = state.prev_update
        delta, _, _ = next_direction(state, batch, poisson)
        info = optimizer_step(state, batch, poisson)
        want = info.alpha * delta + info.mu * prev
        assert np.linalg.norm(state.prev_update - want) <= 1e-12 * np.linalg.norm(want)

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
        # regression on the condition points with a linear net is a linear
        # least-squares problem: one Gauss-Newton step with alpha = 1
        # reaches the least-norm solution (the linear net's Laplacian is 0,
        # so the interior point at the origin, source 0, adds a zero
        # residual and a zero Jacobian row)
        rng = np.random.default_rng(7)
        params = Parameters([rng.standard_normal((1, 2))], [rng.standard_normal(1)])
        xb = rng.uniform(0, 1, size=(8, 2))
        w_true = np.array([0.7, -0.3])
        targets = xb @ w_true + 0.25
        batch = pde.Batch(np.zeros((1, 2)), xb, targets, np.zeros(1))
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
        # the EMA starts from the shared initializer and averages the step's dense Gramian
        batch = pde.sample_batch(poisson, 6, 4, seed=9)
        for init_mode in ("zero", "identity"):
            state = small_state("engd", ema=0.9, init_mode=init_mode)
            init = curvature.initial_curvature(state.params.n_params, init_mode)
            assert np.array_equal(state.memory, init)
            ev = evaluate_batch(state.params, batch, poisson)
            want = 0.9 * init + 0.1 * curvature.dense_gramian(ev.interior, ev.boundary)
            optimizer_step(state, batch, poisson)
            assert np.max(np.abs(state.memory - want)) <= 1e-12 * np.max(np.abs(want)), init_mode

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
        # quadratic in the bias: theta' = (1 - lr) theta for loss
        # theta^2 / 2 (single boundary point at the origin, target 0, so the
        # weights receive no gradient; the interior point, source 0, has
        # the linear net's zero residual)
        p = Parameters([np.zeros((1, 2))], [np.array([1.0])])
        batch = pde.Batch(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1), np.zeros(1))
        state = init_train_state(p, OptimizerConfig(optimizer="sgd", lr=0.1, momentum=0.0))
        for t in range(1, 4):
            optimizer_step(state, batch, poisson)
            assert state.params.biases[0][0] == pytest.approx(0.9**t, abs=1e-14)

    def test_adam_first_step_formula(self, poisson):
        # unit gradient: first update is -lr / (1 + eps-correction); the
        # interior point, source 0, has the linear net's zero residual
        p = Parameters([np.zeros((1, 2))], [np.array([1.0])])
        batch = pde.Batch(np.zeros((1, 2)), np.array([[0.0, 0.0]]), np.zeros(1), np.zeros(1))
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


class TestSmallestBatch:
    """One interior and one condition point: the smallest batch
    :class:`pde.Batch` allows, and the split's uncut path (n < 4)."""

    @pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
    def test_every_kind_takes_a_finite_step(self, poisson, kind):
        state = small_state(kind, widths=(2, 8, 8, 1), damping=1e-2, lr=1e-2)
        batch = pde.sample_batch(poisson, 1, 1, seed=0)
        before = state.params.vector.copy()
        info = optimizer_step(state, batch, poisson)
        assert np.isfinite(info.alpha) and np.isfinite(info.loss_total)
        assert np.all(np.isfinite(state.params.vector))
        assert not np.array_equal(state.params.vector, before)

    @pytest.mark.parametrize("kind", ["kfac", "kfac_star"])
    @pytest.mark.parametrize("widths", [(2, 8, 1), (2, 8, 8, 1)])
    def test_single_condition_points_factors_are_exact(self, poisson, kind, widths):
        # one sample's Jacobian block is a Kronecker product, so at ema 0 each
        # layer's condition factors reproduce that layer's diagonal Gramian block
        state = small_state(kind, widths=widths, damping=1e-2, ema=0.0)
        batch = pde.sample_batch(poisson, 1, 1, seed=0)
        _, kf, _ = next_direction(state, batch, poisson)
        _, rows = curvature.residual_jacobian_rows(state.params, batch, poisson)
        start = 0
        for a, b in zip(kf.a_boundary, kf.b_boundary):
            block = rows[:, start : start + a.shape[0] * b.shape[0]]
            np.testing.assert_allclose(np.kron(a, b), block.T @ block, rtol=1e-12, atol=1e-14)
            start += block.shape[1]
        assert start == state.params.n_params
