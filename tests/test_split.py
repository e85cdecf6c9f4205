"""The two halves of a split pass: the same bits on any thread, failures
that end the run as diverged, and no thread left behind."""

import dataclasses
import gc
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import oracle
from pinnopt import curvature, harness, network, optim, pde, taylor
from pinnopt.network import init_params
from pinnopt.optim import OptimizerConfig, evaluate_batch, init_train_state, optimizer_step

from test_harness import tiny_config, train_cli
from test_workspace import _workload_config

WORKER_PREFIX = "pinnopt-split"  # the executor names its thread pinnopt-split_0
JOIN_TIMEOUT_S = 120


def _is_worker(thread_name: str) -> bool:
    return thread_name.startswith(WORKER_PREFIX)


def _log_without_wall_time(config):
    return [row[:1] + row[2:] for row in harness.run_training(config).rows]


class _PendingExecutor:
    """Stands in for a workspace's executor; no future it returns ever starts."""

    def __init__(self, **kwargs):
        pass

    def submit(self, fn, *args):
        return Future()

    def shutdown(self):
        pass


def _count_thread_starts(monkeypatch) -> list:
    """The names of the threads started from now on, in start order."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


class TestThreadIndependence:
    @pytest.mark.parametrize("name", ["poisson2d-kfac", "fokker10d-kfac_star", "poisson100d-kfac_star"])
    def test_worker_and_caller_only_logs_match(self, name, tmp_path, monkeypatch):
        config = dataclasses.replace(
            _workload_config(name), max_steps=4, eval_every=1, output_dir=str(tmp_path / "worker")
        )
        threads_before = threading.active_count()
        ran_on = set()
        derivs = taylor._reverse_derivs

        def spy(s0, s1, workspace):
            ran_on.add(threading.current_thread().name)
            return derivs(s0, s1, workspace)

        monkeypatch.setattr(taylor, "_reverse_derivs", spy)
        with_worker = _log_without_wall_time(config)
        assert any(_is_worker(thread) for thread in ran_on)
        assert threading.active_count() == threads_before

        # the worker never starts a half: the caller cancels and runs each half 1 itself
        monkeypatch.setattr(taylor, "ThreadPoolExecutor", _PendingExecutor)
        ran_on.clear()
        config = dataclasses.replace(config, output_dir=str(tmp_path / "caller"))
        assert _log_without_wall_time(config) == with_worker
        assert ran_on == {threading.current_thread().name}

    def test_concurrent_training_states_match_single_thread(self):
        # 6 callers and their 6 workers on fewer CPUs, switching as often as
        # the interpreter allows: a half that read or wrote another half's
        # rows, or another state's arrays, would change some bit
        cases = [
            (("log_fokker_planck", {}), (10, 12, 12, 1), "kfac_star", 0),
            (("log_fokker_planck", {}), (10, 8, 1), "kfac_star", 1),
            (("poisson2d_sin", {}), (2, 10, 1), "kfac", 2),
            (("heat", {"spatial_dim": 1}), (2, 6, 6, 1), "kfac", 3),
            (("poisson2d_sin", {}), (2, 7, 1), "engd", 4),
            (("poisson_norm2", {"dim": 20}), (20, 9, 1), "kfac_star", 5),
        ]
        steps = 3

        def setup(problem_spec, widths, kind, seed):
            problem = pde.make_problem(problem_spec[0], **problem_spec[1])
            state = init_train_state(
                init_params(widths, seed), OptimizerConfig(optimizer=kind, momentum=0.5, damping=1e-3)
            )
            batches = [pde.sample_batch(problem, 33, 9, seed=10 * seed + t) for t in range(steps)]
            return problem, state, batches

        def train(problem, state, batches, out):
            for batch in batches:
                info = optimizer_step(state, batch, problem)
                out.append((info.alpha, info.mu, info.loss_interior, info.loss_boundary))
            out.append(oracle.params_to_vec(state.params).tobytes())

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

    The reverse pass is the one that asks for third derivatives of the
    activation (``taylor._reverse_derivs``).  The caller's half waits for the worker to start its own,
    so the NaN row (in the second half) is taken by the worker.  Returns
    the names of the threads that raised.
    """
    sample = pde.sample_batch
    derivs = taylor._reverse_derivs
    worker_started = threading.Event()
    raised_on = []

    def nan_last(problem, n_interior, n_boundary, seed):
        batch = sample(problem, n_interior, n_boundary, seed)
        batch.interior[-1] = np.nan
        return batch

    def checked_derivs(s0, s1, workspace):
        if _is_worker(threading.current_thread().name):
            worker_started.set()
        else:
            worker_started.wait(timeout=JOIN_TIMEOUT_S)
        s = derivs(s0, s1, workspace)
        if not np.all(np.isfinite(s.s0)):
            raised_on.append(threading.current_thread().name)
            raise FloatingPointError("non-finite activation in the reverse pass")
        return s

    monkeypatch.setattr(pde, "sample_batch", nan_last)
    monkeypatch.setattr(taylor, "_reverse_derivs", checked_derivs)
    return raised_on


class TestFailureAndLifetime:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_in_worker_half_ends_run_as_diverged(self, tmp_path, monkeypatch):
        threads_before = threading.active_count()
        raised_on = _fail_in_worker_half(monkeypatch)
        log = harness.run_training(tiny_config(tmp_path, optimizer="kfac_star", damping=1e-3))
        assert log.diverged
        assert [_is_worker(thread) for thread in raised_on] == [True]
        assert "# diverged step=1: non-finite activation in the reverse pass" in (tmp_path / "run" / "log.csv").read_text()
        assert threading.active_count() == threads_before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_in_worker_half_exits_3(self, tmp_path, monkeypatch):
        raised_on = _fail_in_worker_half(monkeypatch)
        assert train_cli(tmp_path, optimizer="kfac_star", damping=1e-3) == 3
        assert [_is_worker(thread) for thread in raised_on] == [True]

    def test_public_passes_without_workspace_start_no_thread(self, monkeypatch):
        started = _count_thread_starts(monkeypatch)
        threads_before = threading.active_count()
        problem = pde.make_problem("log_fokker_planck")
        params = init_params((10, 6, 5, 1), 0)
        batch = pde.sample_batch(problem, 9, 4, seed=0)
        ev = evaluate_batch(params, batch, problem)
        seeds = np.ones((9, 12))
        kfac = curvature.init_kfac_state(params, "identity")
        basis = [ev.grad]
        for _ in range(40):
            states, _ = taylor.taylor_forward(params, batch.interior, problem.coeffs)
            taylor.taylor_backward(params, states, seeds, problem.coeffs)
            curvature.interior_factor_update(kfac, ev.interior, 0.9)
            curvature.loss_gradient(ev.interior, ev.residuals_int, ev.boundary, ev.residuals_bnd)
            curvature._interior_jacobian_rows(ev.interior, basis, taylor.Workspace())
        assert started == []
        assert threading.active_count() == threads_before

    def test_closed_workspace_runs_both_halves_on_caller(self, monkeypatch):
        threads_before = threading.active_count()
        workspace = taylor.Workspace(worker=True)
        workspace.split(6, lambda half: half.rows)  # starts the worker thread
        workspace.close()
        assert threading.active_count() == threads_before

        started = _count_thread_starts(monkeypatch)
        ran_on = []

        def rows(half):
            ran_on.append(threading.current_thread().name)
            return half.rows

        assert workspace.split(5, rows) == [slice(0, 3), slice(3, 5)]
        assert ran_on == [threading.current_thread().name] * 2
        assert started == []

    def test_dropped_state_ends_its_thread(self):
        threads_before = threading.active_count()
        running_before = set(threading.enumerate())
        problem = pde.make_problem("poisson2d_sin")
        state = init_train_state(init_params((2, 8, 1), 0), OptimizerConfig(optimizer="kfac", damping=1e-3))
        optimizer_step(state, pde.sample_batch(problem, 20, 8, seed=0), problem)
        workers = [
            thread for thread in set(threading.enumerate()) - running_before if _is_worker(thread.name)
        ]
        assert len(workers) == 1

        del state  # never closed
        gc.collect()
        workers[0].join(timeout=JOIN_TIMEOUT_S)
        assert not workers[0].is_alive()
        assert threading.active_count() == threads_before


def _poison_half_1(problem, n: int, poison, worker_started=None):
    """``problem`` whose residual on half 1's rows of an odd batch of ``n`` goes through ``poison``.

    ``poison(r)`` may write NaNs into the residuals ``r`` of those rows.
    Only a split pass evaluates the residual on a half (the batch
    evaluation takes the whole batch); half 1 has n // 2 rows and half 0
    one more.  With an event ``worker_started``, half 1 sets it and half 0
    waits for it, so a workspace with a worker surely runs half 1 there.
    """
    residual = problem.residual

    def poisoned(x, f, u, grad, op):
        r = residual(x, f, u, grad, op)
        if x.shape[0] == n // 2:
            if worker_started is not None:
                worker_started.set()
            poison(r)
        elif worker_started is not None and x.shape[0] == (n + 1) // 2:
            assert worker_started.wait(timeout=JOIN_TIMEOUT_S)
        return r

    return dataclasses.replace(problem, residual=poisoned)


class TestLineSearchSplit:
    def test_kfac_line_search_rows_run_on_the_worker(self, monkeypatch):
        # both halves score every candidate, half 1 on the worker; the
        # caller's first candidate waits until the worker has taken half 1
        ran_on = []
        worker_started = threading.Event()
        output = pde.taylor_output

        def spy(*args):
            thread = threading.current_thread().name
            ran_on.append(thread)
            if _is_worker(thread):
                worker_started.set()
            elif len(ran_on) == 1:
                worker_started.wait(timeout=JOIN_TIMEOUT_S)
            return output(*args)

        monkeypatch.setattr(pde, "taylor_output", spy)
        problem = pde.make_problem("poisson2d_sin")
        state = init_train_state(init_params((2, 16, 1), 0), OptimizerConfig(optimizer="kfac", damping=1e-3))
        try:
            optimizer_step(state, pde.sample_batch(problem, 201, 20, seed=0), problem)
        finally:
            state.workspace.close()
        assert len(ran_on) == 2 * len(optim.LINE_SEARCH_GRID)
        assert any(_is_worker(thread) for thread in ran_on)
        assert threading.current_thread().name in ran_on

    def test_nan_in_worker_half_skips_the_candidate(self):
        problem = pde.make_problem("poisson2d_sin")
        n = 21
        batch = pde.sample_batch(problem, n, 8, seed=4)
        state = init_train_state(init_params((2, 8, 1), 1), OptimizerConfig(optimizer="kfac", damping=1e-3))
        direction = -evaluate_batch(state.params, batch, problem).grad
        grid = optim.LINE_SEARCH_GRID
        candidates = [network.add_scaled(state.params, direction, alpha) for alpha in grid]
        totals = [l_int + l_bnd for l_int, l_bnd in optim.evaluate_losses(candidates, batch, problem)]
        best = totals.index(min(totals))
        runner_up = min((loss, k) for k, loss in enumerate(totals) if k != best)[1]

        # the worker's half of the best candidate alone has a NaN residual
        scored, nan_on = [], []

        def poison(r):
            if len(scored) == best:
                nan_on.append(threading.current_thread().name)
                r[-1] = np.nan
            scored.append(None)

        poisoned = _poison_half_1(problem, n, poison, threading.Event())
        try:
            _, alpha = optim._line_search_update(state, batch, poisoned, direction)
        finally:
            state.workspace.close()
        assert len(scored) == len(grid)
        assert [_is_worker(thread) for thread in nan_on] == [True]
        assert alpha == grid[runner_up] != grid[best]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_at_every_step_size_exits_3(self, tmp_path, monkeypatch):
        make_problem = pde.make_problem
        n = 21

        def nan_in_half_1(name, **params):
            return _poison_half_1(make_problem(name, **params), n, lambda r: r.fill(np.nan))

        monkeypatch.setattr(harness.pde, "make_problem", nan_in_half_1)
        assert train_cli(tmp_path, optimizer="kfac", damping=1e-3, n_interior=n, max_steps=3, eval_every=1) == 3
        text = (tmp_path / "run" / "log.csv").read_text()
        assert "# diverged step=1: loss is non-finite at every line-search step size" in text
        assert (tmp_path / "run" / "checkpoint.json").exists()


@pytest.fixture
def worker_workspace():
    workspace = taylor.Workspace(worker=True)
    yield workspace
    workspace.close()


def _split_on_two_threads(workspace, caller_half, worker_half) -> list:
    """``workspace.split`` with half 1 surely run on the worker.

    Half 0 waits until the worker has started half 1, so the caller cannot
    cancel it and take it over.
    """
    worker_started = threading.Event()

    def fn(half):
        if half.rows.start == 0:
            assert worker_started.wait(timeout=JOIN_TIMEOUT_S)
            return caller_half()
        worker_started.set()
        return worker_half()

    return workspace.split(8, fn)


def _fail(message: str):
    raise ValueError(message)


class TestSplitErrors:
    def test_results_in_half_order(self, worker_workspace):
        halves = _split_on_two_threads(worker_workspace, lambda: "half 0", lambda: "half 1")
        assert halves == ["half 0", "half 1"]

    def test_both_halves_raise_half_0_error_after_both_are_done(self, worker_workspace):
        finished_on = []

        def slow_failure():
            time.sleep(0.05)
            finished_on.append(threading.current_thread().name)
            _fail("half 1")

        with pytest.raises(ValueError, match="half 0"):
            _split_on_two_threads(worker_workspace, lambda: _fail("half 0"), slow_failure)
        # checked before the fixture's close() waits for the worker
        assert [_is_worker(thread) for thread in finished_on] == [True]

    def test_error_of_worker_half_is_raised_on_caller(self, worker_workspace):
        raised_on = []

        def failure():
            raised_on.append(threading.current_thread().name)
            _fail("half 1")

        with pytest.raises(ValueError, match="half 1"):
            _split_on_two_threads(worker_workspace, lambda: "half 0", failure)
        assert [_is_worker(thread) for thread in raised_on] == [True]
