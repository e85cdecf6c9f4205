"""Per-run buffers: reusing a TrainState's workspace changes no bit, and a
warmed-up training step allocates almost nothing new."""

import importlib.util
import os
import tracemalloc

import numpy as np
import pytest

from pinnopt import harness, network, pde
from pinnopt.network import Architecture, init_params
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
# (interior, boundary) points per step: the batch grows, repeats and shrinks
BATCH_SIZES = ((7, 5), (7, 5), (11, 6), (4, 3))


class FreshWorkspace(Workspace):
    """The fresh-allocation reference: every request gets a new array."""

    def array(self, shape, role, layer=None):
        return np.empty(shape)


def _records_equal(a, b):
    for (za, ga), (zb, gb) in zip(a, b):
        assert np.array_equal(za, zb)
        assert np.array_equal(ga, gb)


class TestBufferReuse:
    """Steps through one workspace against steps whose every array is new."""

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("kind", ["kfac", "kfac_star", "engd"])
    def test_reused_workspace_matches_fresh_allocation(self, name, kind):
        problem = PROBLEMS[name]()
        config = OptimizerConfig(kind=kind, momentum=0.5, damping=1e-3)
        params = init_params(Architecture(EQUAL_WIDTHS), 3)
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
            for got, ref in zip(ev.grad_mats, want.grad_mats):
                assert np.array_equal(got, ref)
            if previous is not None and previous.shape == ev.interior[1][0].shape:
                # the same batch size writes into the previous step's arrays
                assert np.shares_memory(previous, ev.interior[1][0])
            previous = ev.interior[1][0]

            info = optimizer_step(reused, batch, problem)
            ref = optimizer_step(fresh, batch, problem)
            assert (info.alpha, info.mu, info.loss_interior, info.loss_boundary) == (
                ref.alpha,
                ref.mu,
                ref.loss_interior,
                ref.loss_boundary,
            )
            assert np.array_equal(network.params_to_vec(reused.params), network.params_to_vec(fresh.params))

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
        state = init_train_state(init_params(Architecture(tuple(cfg.widths)), 0), cfg.optimizer_config())
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
