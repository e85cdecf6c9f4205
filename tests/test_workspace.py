"""Per-run buffers: reusing a TrainState's workspace changes no bit, and a
warmed-up training step allocates almost nothing new."""

import dataclasses
import importlib.util
import os
import tracemalloc

import numpy as np
import pytest

import oracle
from pinnopt import harness, pde
from pinnopt.network import init_params
from pinnopt.optim import OptimizerConfig, evaluate_batch, init_train_state, optimizer_step
from pinnopt.taylor import Workspace

from test_curvature import _nondiagonal_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBLEMS = {
    "laplacian": lambda: pde.make_problem("poisson2d_sin"),
    "partial_laplacian": lambda: pde.make_problem("heat", spatial_dim=1),
    "nondiagonal": _nondiagonal_problem,
}
# equal hidden widths: arrays keyed by shape alone would alias across layers
EQUAL_WIDTHS = (2, 5, 5, 5, 1)
# one hidden layer: its record holds layer 0's output gradient and layer 1's input factored
ONE_HIDDEN_WIDTHS = (2, 5, 1)
# (interior, boundary) points per step: the batch grows, repeats and shrinks
BATCH_SIZES = ((7, 5), (7, 5), (11, 6), (4, 3))


class FreshWorkspace(Workspace):
    """The fresh-allocation reference: every request gets a new array."""

    def array(self, shape, role, layer=None):
        return np.empty(shape)


def _arrays(entry) -> list:
    """The arrays of a record entry: the entry itself, or the fields of a factored one."""
    if isinstance(entry, np.ndarray):
        return [entry]
    return [a for field in dataclasses.fields(entry) for a in _arrays(getattr(entry, field.name))]


def _records_equal(a, b):
    for entry_a, entry_b in zip(a, b):
        for x, y in zip(_arrays(entry_a[0]) + _arrays(entry_a[1]), _arrays(entry_b[0]) + _arrays(entry_b[1])):
            assert np.array_equal(x, y)


class TestBufferReuse:
    """Steps through one workspace against steps whose every array is new."""

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("kind", ["kfac", "kfac_star", "engd"])
    def test_reused_workspace_matches_fresh_allocation(self, name, kind):
        for widths in (EQUAL_WIDTHS, ONE_HIDDEN_WIDTHS):
            self._check_reuse(PROBLEMS[name](), OptimizerConfig(optimizer=kind, momentum=0.5, damping=1e-3), widths)

    def _check_reuse(self, problem, config, widths):
        params = init_params(widths, 3)
        reused = init_train_state(params.copy(), config)
        fresh = init_train_state(params.copy(), config)
        fresh.workspace = FreshWorkspace()
        previous = None
        for step, (n_int, n_bnd) in enumerate(BATCH_SIZES):
            batch = pde.sample_batch(problem, n_int, n_bnd, seed=100 + step)
            ev = evaluate_batch(reused.params, batch, problem, reused.workspace)
            want = evaluate_batch(fresh.params, batch, problem, fresh.workspace)
            _records_equal(ev.interior, want.interior)
            _records_equal(ev.boundary, want.boundary)
            assert np.array_equal(ev.grad, want.grad)
            layer_1_input = _arrays(ev.interior[1][0])[0]
            if previous is not None and previous.shape == layer_1_input.shape:
                # the same batch size writes into the previous step's arrays
                assert np.shares_memory(previous, layer_1_input)
            previous = layer_1_input

            info = optimizer_step(reused, batch, problem)
            ref = optimizer_step(fresh, batch, problem)
            assert (info.alpha, info.mu, info.loss_interior, info.loss_boundary) == (
                ref.alpha,
                ref.mu,
                ref.loss_interior,
                ref.loss_boundary,
            )
            assert np.array_equal(oracle.params_to_vec(reused.params), oracle.params_to_vec(fresh.params))

    def test_equal_keys_share_and_distinct_layers_do_not(self):
        ws = Workspace()
        a = ws.array((3, 4, 5), "state", 2)
        b = ws.array((3, 4, 5), "state", 3)
        assert not np.shares_memory(a, b)
        assert np.shares_memory(a, ws.array((2, 4, 5), "state", 2))


def _workload_config(name):
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return harness.RunConfig.from_dict(module.WORKLOADS[name]["config"])


class TestAllocationGuard:
    # A warmed-up fokker10d-kfac_star step allocates about 1.8 MB of new
    # memory (small (N, h) and per-layer arrays).  One (N, d, h) temporary
    # of its first hidden layer is 4.6 MB, so a full-size temporary back in
    # the step breaks the bound; the step without per-run buffers allocated 49 MB.
    BOUND_MB = 4.0

    def test_warm_kfac_star_step_allocates_little(self):
        cfg = _workload_config("fokker10d-kfac_star")
        problem = pde.make_problem(cfg.problem, **cfg.problem_params)
        state = init_train_state(init_params(cfg.widths, 0), cfg)
        batch = pde.sample_batch(problem, cfg.n_interior, cfg.n_boundary, seed=1)
        for _ in range(2):
            optimizer_step(state, batch, problem)
        tracemalloc.start()
        try:
            optimizer_step(state, batch, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < self.BOUND_MB

    def test_first_poisson100d_step_forms_no_full_size_array(self):
        # One (N, d + 2, h) array of poisson100d-kfac_star's [100, 64, 1] net at
        # N = 200 is 10.4 MB; a fresh state's first step peaked at 33.2 MB while
        # its record held the first activation's state and adjoints in that shape.
        cfg = _workload_config("poisson100d-kfac_star")
        problem = pde.make_problem(cfg.problem, **cfg.problem_params)
        state = init_train_state(init_params(cfg.widths, 0), cfg)
        batch = pde.sample_batch(problem, cfg.n_interior, cfg.n_boundary, seed=1)
        full_size = cfg.n_interior * (cfg.widths[0] + 2) * cfg.widths[1] * 8
        tracemalloc.start()
        try:
            optimizer_step(state, batch, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            state.workspace.close()
        assert peak < full_size

    @pytest.mark.parametrize("hidden", [2, 3])
    def test_deep_step_keeps_two_full_size_arrays_per_layer(self, hidden):
        # One (N, d + 2, h) array of fokker10d-kfac_star's [10, 64, 64, 1] net at
        # N = 900 is 5.53 MB.  A net with H hidden layers of that width keeps
        # 2 (H - 1) arrays in that shape: the pre-activations of linear layers
        # 1 .. H - 1 and the output adjoints of layers 0 .. H - 2.  Every
        # activation state is (N, h) factors, the last hidden adjoint is
        # factored over the last pre-activation, and the reverse pass reads
        # s0 and s1 from the kept states, so its tanh buffer holds s2 and s3
        # alone.  With the last hidden adjoint in full and a ("derivs") buffer
        # of s0..s3, the warm fokker workspace held three such arrays (23.6 MB)
        # and its first step peaked at 25.4 MB; now 18.5 MB and 21.5 MB.
        cfg = _workload_config("fokker10d-kfac_star")
        widths = (cfg.widths[0],) + (cfg.widths[1],) * hidden + (1,)
        problem = pde.make_problem(cfg.problem, **cfg.problem_params)
        state = init_train_state(init_params(widths, 0), cfg)
        batch = pde.sample_batch(problem, cfg.n_interior, cfg.n_boundary, seed=1)
        full_size = cfg.n_interior * (cfg.widths[0] + 2) * cfg.widths[1] * 8
        tracemalloc.start()
        try:
            optimizer_step(state, batch, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        try:
            optimizer_step(state, batch, problem)
            buffers = dict(state.workspace._buffers)
        finally:
            state.workspace.close()
        assert sum(flat.nbytes >= full_size for flat in buffers.values()) == 2 * (hidden - 1)
        assert not [key for key in buffers if key[0] == "derivs"]
        assert buffers[("tanh", None)].size == 2 * cfg.n_interior * cfg.widths[1]
        if tuple(widths) == tuple(cfg.widths):
            assert peak < 4 * full_size
