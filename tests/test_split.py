"""The two halves of a split pass: the same bits on any thread, failures
that end the run as diverged, and no thread left behind."""

import sys
import threading

import numpy as np
import pytest

from pinnopt import curvature, harness, network, pde, taylor
from pinnopt.network import Architecture, init_params
from pinnopt.optim import OptimizerConfig, evaluate_batch, init_train_state, optimizer_step

from test_harness import tiny_config, train_cli
from test_workspace import _workload_config

WORKER_NAME = "pinnopt-split"
JOIN_TIMEOUT_S = 120


def _log_without_wall_time(config):
    return [row[:1] + row[2:] for row in harness.run_training(config).rows]


class TestThreadIndependence:
    @pytest.mark.parametrize("name", ["poisson2d-kfac", "fokker10d-kfac_star", "poisson100d-kfac_star"])
    def test_worker_and_caller_only_logs_match(self, name, tmp_path, monkeypatch):
        config = _workload_config(name)
        config.max_steps, config.eval_every = 4, 1
        config.output_dir = str(tmp_path / "worker")
        threads_before = threading.active_count()
        ran_on = set()
        run = taylor._Split.run

        def spy(job):
            ran_on.add(threading.current_thread().name)
            run(job)

        monkeypatch.setattr(taylor._Split, "run", spy)
        with_worker = _log_without_wall_time(config)
        assert WORKER_NAME in ran_on
        assert threading.active_count() == threads_before

        # never hand a half to the worker: the caller takes both, and no thread starts
        monkeypatch.setattr(taylor._Worker, "post", lambda self, job: None)
        ran_on.clear()
        config.output_dir = str(tmp_path / "caller")
        assert _log_without_wall_time(config) == with_worker
        assert ran_on == {threading.current_thread().name}

    def test_concurrent_training_states_match_single_thread(self):
        # 4 callers and their 4 workers on fewer CPUs, switching as often as
        # the interpreter allows: a half that read or wrote another half's
        # rows, or another state's arrays, would change some bit
        cases = [
            ("log_fokker_planck", (10, 12, 12, 1), "kfac_star", 0),
            ("log_fokker_planck", (10, 8, 1), "kfac_star", 1),
            ("poisson2d_sin", (2, 10, 1), "kfac", 2),
            ("heat", (2, 6, 6, 1), "kfac", 3),
        ]
        steps = 3

        def setup(problem_name, widths, kind, seed):
            problem = pde.make_problem(problem_name, **({"spatial_dim": 1} if problem_name == "heat" else {}))
            state = init_train_state(
                init_params(Architecture(widths), seed), OptimizerConfig(kind=kind, momentum=0.5, damping=1e-3)
            )
            batches = [pde.sample_batch(problem, 33, 9, seed=10 * seed + t) for t in range(steps)]
            return problem, state, batches

        def train(problem, state, batches, out):
            for batch in batches:
                info = optimizer_step(state, batch, problem)
                out.append((info.alpha, info.mu, info.loss_interior, info.loss_boundary))
            out.append(network.params_to_vec(state.params).tobytes())

        references = []
        for case in cases:
            problem, state, batches = setup(*case)
            state.workspace.close()  # single thread: the caller takes both halves
            references.append([])
            train(problem, state, batches, references[-1])

        runs = [setup(*case) for case in cases]
        results = [[] for _ in cases]
        threads = [
            threading.Thread(target=train, args=(*run, out)) for run, out in zip(runs, results)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
            for _, state, _ in runs:
                state.workspace.close()
        assert not any(thread.is_alive() for thread in threads)
        assert results == references


def _fail_in_worker_half(monkeypatch):
    """Put a NaN point last in every batch and fail the reverse pass on it.

    The caller's half waits for the worker to start its own, so the NaN
    row (in the second half) is taken by the worker.  Returns the names of
    the threads that raised.
    """
    sample = pde.sample_batch
    backward = taylor._activation_backward
    worker_started = threading.Event()
    raised_on = []

    def nan_last(problem, n_interior, n_boundary, seed):
        batch = sample(problem, n_interior, n_boundary, seed)
        batch.interior[-1] = np.nan
        return batch

    def checked_backward(derivs, g, ell, g_out, coeffs, workspace):
        if threading.current_thread().name == WORKER_NAME:
            worker_started.set()
        else:
            worker_started.wait(timeout=JOIN_TIMEOUT_S)
        if not np.all(np.isfinite(derivs.s0)):
            raised_on.append(threading.current_thread().name)
            raise FloatingPointError("non-finite activation in the reverse pass")
        return backward(derivs, g, ell, g_out, coeffs, workspace)

    monkeypatch.setattr(pde, "sample_batch", nan_last)
    monkeypatch.setattr(taylor, "_activation_backward", checked_backward)
    return raised_on


class TestFailureAndLifetime:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_in_worker_half_ends_run_as_diverged(self, tmp_path, monkeypatch):
        threads_before = threading.active_count()
        raised_on = _fail_in_worker_half(monkeypatch)
        log = harness.run_training(tiny_config(tmp_path, optimizer="kfac_star", damping=1e-3))
        assert log.diverged
        assert raised_on == [WORKER_NAME]
        assert "# diverged: non-finite activation in the reverse pass" in (tmp_path / "run" / "log.csv").read_text()
        assert threading.active_count() == threads_before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_in_worker_half_exits_3(self, tmp_path, monkeypatch):
        raised_on = _fail_in_worker_half(monkeypatch)
        assert train_cli(tmp_path, optimizer="kfac_star", damping=1e-3) == 3
        assert raised_on == [WORKER_NAME]

    def test_public_passes_without_workspace_start_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        threads_before = threading.active_count()
        problem = pde.make_problem("log_fokker_planck")
        params = init_params(Architecture((10, 6, 5, 1)), 0)
        batch = pde.sample_batch(problem, 9, 4, seed=0)
        ev = evaluate_batch(params, batch, problem)
        seeds = np.ones((9, 12))
        kfac = curvature.init_kfac_state(params, 0.9, 1e-3)
        basis = [ev.grad_mats]
        for _ in range(40):
            states, _ = taylor.taylor_forward(params, batch.interior, problem.coeffs)
            taylor.taylor_backward(params, states, seeds, problem.coeffs)
            curvature.interior_factor_update(kfac, ev.interior)
            curvature.loss_gradient(ev.interior, ev.residuals_int, ev.boundary, ev.residuals_bnd)
            curvature._interior_jacobian_rows(ev.interior, basis, taylor.Workspace())
        assert started == []
        assert threading.active_count() == threads_before
