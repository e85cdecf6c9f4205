"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  The training criteria use the full reproducibility harness
and finish in a few minutes on one CPU core.
"""

import time

import numpy as np
import pytest

import analytic
import oracle
from pinnopt import curvature, harness, network, pde
from pinnopt.network import init_params
from pinnopt.optim import OptimizerConfig, evaluate_batch, init_train_state, optimizer_step
from pinnopt.curvature import param_grad_matrix
from pinnopt.taylor import (
    OperatorCoeffs,
    Workspace,
    taylor_forward,
)

from test_curvature import _reference_record


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_forward_engine():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_grad = 0.0
    worst_op = 0.0
    for widths in ((2, 16, 16, 1), (5, 32, 1)):
        d = widths[0]
        params = init_params(widths, 7)
        pts = rng.uniform(-1.0, 1.0, size=(100, d))
        rand_c = rng.standard_normal((d, d))
        coeff_sets = [OperatorCoeffs.laplacian(d), OperatorCoeffs(0.5 * (rand_c + rand_c.T))]
        if d == 5:
            coeff_sets.append(OperatorCoeffs(np.diag([0.0, 1.0, 1.0, 1.0, 1.0])))
        f = lambda y: oracle.forward(params, y)[0]
        _, out = taylor_forward(params, pts, coeff_sets[0])
        for i, x in enumerate(pts):
            worst_grad = max(worst_grad, oracle.rel_error(out.gradient[i], oracle.fd_gradient(f, x)))
        for co in coeff_sets:
            _, out_c = taylor_forward(params, pts, co)
            for i, x in enumerate(pts):
                worst_op = max(worst_op, oracle.rel_error(out_c.operator[i], oracle.fd_operator(f, x, co)))
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-8 and worst_op <= 1e-6 and elapsed < 5.0
    report(
        "criterion 1 forward engine",
        ok,
        f"grad rel err {worst_grad:.2e} <= 1e-8, operator rel err {worst_op:.2e} <= 1e-6, {elapsed:.1f}s < 5s",
    )


def test_criterion_2_backward_engine():
    t0 = time.perf_counter()
    problem = pde.make_problem("poisson2d_sin")
    widths = (2, 24, 24, 1)
    params = init_params(widths, 11)
    assert params.n_params <= 1000
    vec = oracle.params_to_vec(params)
    co = problem.coeffs
    x = np.random.default_rng(103).uniform(0.0, 1.0, size=(1, 2))

    # gradients of the operator output
    states, _ = taylor_forward(params, x, co)
    seeds = np.zeros((1, 4))
    seeds[0, 3] = 1.0
    from pinnopt.taylor import taylor_backward

    adjoints = taylor_backward(params, states, seeds, co)
    analytic_vec = oracle.flatten_mats(
        [
            param_grad_matrix(z, g, Workspace()).T
            for z, g in curvature.layer_pairs(params, states, adjoints)
        ]
    )
    h = 1e-6
    worst = 0.0
    for k in range(vec.size):
        vp, vm = vec.copy(), vec.copy()
        vp[k] += h
        vm[k] -= h
        _, op = taylor_forward(oracle.vec_to_params(vp, params), x, co)
        _, om = taylor_forward(oracle.vec_to_params(vm, params), x, co)
        fd = (op.operator[0] - om.operator[0]) / (2 * h)
        worst = max(worst, abs(fd - analytic_vec[k]) / max(1.0, abs(fd)))

    # gradients of both loss terms
    batch = pde.sample_batch(problem, 12, 8, seed=5)
    ev = evaluate_batch(params, batch, problem)
    grad_vec = ev.grad

    def losses(v):
        q = oracle.vec_to_params(v, params)
        l_int, _, _, _ = pde.interior_loss_and_residuals(problem, q, batch)
        l_bnd, _, _ = pde.boundary_loss(problem, q, batch)
        return l_int, l_bnd

    worst_loss = 0.0
    for k in range(vec.size):
        vp, vm = vec.copy(), vec.copy()
        vp[k] += h
        vm[k] -= h
        lp_int, lp_bnd = losses(vp)
        lm_int, lm_bnd = losses(vm)
        fd = ((lp_int + lp_bnd) - (lm_int + lm_bnd)) / (2 * h)
        worst_loss = max(worst_loss, abs(fd - grad_vec[k]) / max(1.0, abs(fd)))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and worst_loss <= 1e-5 and elapsed < 30.0
    report(
        "criterion 2 backward engine",
        ok,
        f"operator-grad rel err {worst:.2e}, loss-grad rel err {worst_loss:.2e} <= 1e-5, "
        f"D={params.n_params}, {elapsed:.1f}s < 30s",
    )


def test_criterion_3_curvature():
    problem = pde.make_problem("poisson2d_sin")

    # (a) exact Gramian symmetric PSD
    params = init_params((2, 12, 12, 1), 13)
    assert params.n_params <= 500
    batch = pde.sample_batch(problem, 16, 8, seed=7)
    gram = oracle.exact_gramian(params, batch, problem)
    sym_err = float(np.max(np.abs(gram - gram.T)))
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    ok_a = sym_err == 0.0 and min_eig >= -1e-10 * np.max(np.abs(gram))

    # (b) unit-vector products reproduce every Gramian column
    d_total = params.n_params
    worst_col = 0.0
    for k in range(d_total):
        e = np.zeros(d_total)
        e[k] = 1.0
        col = oracle.gramian_vec(params, batch, problem, e)
        denom = max(1.0, float(np.max(np.abs(gram[:, k]))))
        worst_col = max(worst_col, float(np.max(np.abs(col - gram[:, k]))) / denom)
    ok_b = worst_col <= 1e-10

    # (c) Kronecker-sum solves match dense solves up to size 8
    rng = np.random.default_rng(17)
    worst_solve = 0.0
    for p_dim, q_dim in ((1, 1), (3, 2), (8, 8)):
        def spd(k):
            a = rng.standard_normal((k, k))
            return a @ a.T + k * np.eye(k)

        a1, a2, b1, b2 = spd(p_dim), spd(p_dim), spd(q_dim), spd(q_dim)
        g = rng.standard_normal(p_dim * q_dim)
        v = curvature.kron_sum_solve(a1, b1, a2, b2, g.reshape(p_dim, q_dim)).ravel()
        dense = np.linalg.solve(np.kron(a1, b1) + np.kron(a2, b2), g)
        worst_solve = max(worst_solve, float(np.linalg.norm(v - dense) / np.linalg.norm(dense)))
    ok_c = worst_solve <= 1e-8

    # (d) single-sample condition factors are exact
    lin = network.Parameters([np.array([[1.5, -2.0]])], [np.array([0.5])])
    one = pde.Batch(np.zeros((0, 2)), np.array([[3.0, 4.0]]), np.zeros(1), np.zeros(0))
    gram1 = oracle.exact_gramian(lin, one, problem)
    state = curvature.init_kfac_state(lin, "zero")
    _, inputs = network.forward_batch(lin, one.boundary)
    grads = network.backward_batch(lin, inputs)
    curvature.boundary_factor_update(state, curvature.boundary_pairs(inputs, grads), 0.0)
    rank1_err = float(np.max(np.abs(np.kron(state.a_boundary[0], state.b_boundary[0]) - gram1)))
    ok_d = rank1_err <= 1e-12

    report(
        "criterion 3 curvature",
        ok_a and ok_b and ok_c and ok_d,
        f"(a) sym {sym_err:.1e}, min eig {min_eig:.1e}; (b) column rel err {worst_col:.1e} <= 1e-10; "
        f"(c) solve rel err {worst_solve:.1e} <= 1e-8; (d) rank-1 err {rank1_err:.1e} <= 1e-12",
    )


def test_criterion_4_factor_transcription():
    problem = pde.make_problem("poisson2d_sin")
    params = init_params((2, 4, 1), 9)
    batch = pde.sample_batch(problem, 3, 3, seed=13)
    ev = evaluate_batch(params, batch, problem)
    state = curvature.init_kfac_state(params, "zero")
    curvature.interior_factor_update(state, params, ev.interior, 0.0)
    curvature.boundary_factor_update(state, ev.boundary, 0.0)

    # literal loops over bias-augmented inputs; layer 0 from the full input state
    _, inputs = network.forward_batch(params, batch.boundary)
    grads = network.backward_batch(params, inputs)
    worst = 0.0
    for l, (z, g) in enumerate(_reference_record(params, batch, problem)):
        n, s, h = z.shape
        zhat = np.zeros((n, s, h + 1))
        zhat[:, :, :h] = z
        zhat[:, 0, h] = 1.0
        a_ref = sum(np.outer(zhat[i, j], zhat[i, j]) for i in range(n) for j in range(s)) / (n * s)
        b_ref = sum(np.outer(g[i, j], g[i, j]) for i in range(n) for j in range(s)) / n
        worst = max(worst, float(np.max(np.abs(state.a_interior[l] - a_ref))))
        worst = max(worst, float(np.max(np.abs(state.b_interior[l] - b_ref))))
        z = inputs[l]
        zb = np.concatenate([z, np.ones((z.shape[0], 1))], axis=1)
        gb = grads[l]
        nb = zb.shape[0]
        a_ref = sum(np.outer(zb[i], zb[i]) for i in range(nb)) / nb
        b_ref = sum(np.outer(gb[i], gb[i]) for i in range(nb)) / nb
        worst = max(worst, float(np.max(np.abs(state.a_boundary[l] - a_ref))))
        worst = max(worst, float(np.max(np.abs(state.b_boundary[l] - b_ref))))
    report("criterion 4 factor transcription", worst <= 1e-12, f"max abs err {worst:.2e} <= 1e-12")


def test_criterion_5_true_solution_residuals():
    worst = 0.0
    cases = [
        ("poisson2d_sin", {}),
        ("poisson_cos_sum", {}),
        ("poisson_harmonic_mixed", {}),
        ("poisson_norm2", {"dim": 100}),
        ("heat", {"spatial_dim": 1}),
        ("heat", {"spatial_dim": 4}),
        ("log_fokker_planck", {}),
    ]
    for name, kwargs in cases:
        problem = pde.make_problem(name, **kwargs)
        rng = np.random.default_rng(19)
        x = rng.uniform(problem.lower, problem.upper, size=(20, problem.dim))
        u, grad, op = analytic.triples_for(problem, x)
        r = problem.residual(x, problem.source(x), u, grad, op)
        worst = max(worst, float(np.max(np.abs(r))))
    report(
        "criterion 5 true-solution residuals",
        worst <= 1e-10,
        f"max |r| {worst:.2e} <= 1e-10 over {len(cases)} problems",
    )


def _train(tmp_path, tag, **overrides):
    base = dict(
        problem="poisson2d_sin",
        widths=[2, 64, 1],
        optimizer="adam",
        n_interior=900,
        n_boundary=120,
        resample_every=0,  # fixed batch
        eval_every=2000,
        n_eval_points=2000,
        seed=0,
        output_dir=str(tmp_path / tag),
    )
    base.update(overrides)
    cfg = harness.RunConfig.from_dict(base)
    log = harness.run_training(cfg)
    return log


def test_criterion_6_poisson2d_training(tmp_path):
    t0 = time.perf_counter()
    kfac_log = _train(
        tmp_path, "kfac", optimizer="kfac", damping=1e-5, ema=0.9, momentum=0.9, max_steps=800
    )
    engd_log = _train(
        tmp_path, "engd", optimizer="engd", ema=0.0, damping=0.0, rcond=1e-10, max_steps=300
    )
    adam_finals = {}
    for lr in (1e-2, 1e-3, 1e-4):
        log = _train(tmp_path, f"adam{lr:g}", optimizer="adam", lr=lr, max_steps=2000)
        adam_finals[lr] = log.final[5]
    kfac_err = kfac_log.final[5]
    engd_err = engd_log.final[5]
    elapsed = time.perf_counter() - t0

    ok_a = kfac_err < 1e-2 and engd_err < 1e-2
    ok_b = all(kfac_err < a and engd_err < a for a in adam_finals.values())
    adam_str = ", ".join(f"lr={lr:g}: {e:.2e}" for lr, e in adam_finals.items())
    report(
        "criterion 6 poisson2d training",
        ok_a and ok_b and elapsed < 600.0,
        f"kfac {kfac_err:.2e} and engd {engd_err:.2e} < 1e-2 and < adam ({adam_str}); "
        f"{elapsed:.0f}s < 600s",
    )


def test_criterion_7_heat_training(tmp_path):
    cfg = dict(
        problem="heat",
        problem_params={"spatial_dim": 1},
        optimizer="kfac",
        damping=1e-5,
        ema=0.9,
        momentum=0.9,
        max_steps=1200,
        eval_every=1200,
    )
    log = _train(tmp_path, "heat_kfac", **cfg)
    init_err = log.rows[0][5]
    final_err = log.final[5]
    ratio = init_err / final_err
    report(
        "criterion 7 heat training",
        ratio >= 100.0,
        f"l2 error {init_err:.2e} -> {final_err:.2e}, reduction {ratio:.0f}x >= 100x within 1200 steps",
    )


def test_criterion_8_quadratic_model_optimality():
    problem = pde.make_problem("poisson2d_sin")
    grid = np.linspace(-2.0, 2.0, 41)
    worst_margin = np.inf
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        params = init_params((2, 6, 1), 400 + trial)
        batch = pde.sample_batch(problem, 12, 6, seed=500 + trial)
        state = init_train_state(params, OptimizerConfig(optimizer="kfac_star", damping=1e-3, ema=0.0))
        ev = evaluate_batch(state.params, batch, problem)
        lam = state.config.damping
        curvature.interior_factor_update(state.memory, state.params, ev.interior, state.config.ema)
        curvature.boundary_factor_update(state.memory, ev.boundary, state.config.ema)
        dv = curvature.precondition_gradient(state.memory, ev.grad, lam)
        pv = rng.standard_normal(dv.size) * np.linalg.norm(dv)  # previous update stand-in
        gv = ev.grad
        g_dv = oracle.gramian_vec(state.params, batch, problem, dv)
        g_pv = oracle.gramian_vec(state.params, batch, problem, pv)
        m11 = float(dv @ g_dv + lam * dv @ dv)
        m12 = float(dv @ g_pv + lam * dv @ pv)
        m22 = float(pv @ g_pv + lam * pv @ pv)
        rhs1, rhs2 = float(dv @ gv), float(pv @ gv)

        from pinnopt.optim import solve_quadratic_model

        alpha, mu = solve_quadratic_model([[m11, m12], [m12, m22]], [rhs1, rhs2])

        def model(a, m):
            return a * rhs1 + m * rhs2 + 0.5 * (a * a * m11 + 2 * a * m * m12 + m * m * m22)

        best = model(alpha, mu)
        grid_vals = np.array([[model(a, m) for m in grid] for a in grid])
        margin = float(np.min(grid_vals) - best)
        scale = max(1.0, abs(best))
        worst_margin = min(worst_margin, margin / scale)
    report(
        "criterion 8 quadratic model optimality",
        worst_margin >= -1e-10,
        f"worst margin over 10 states and a 41x41 grid: {worst_margin:.2e} >= -1e-10",
    )


def test_criterion_9_determinism(tmp_path):
    common = dict(
        optimizer="kfac",
        damping=1e-4,
        ema=0.9,
        momentum=0.9,
        widths=[2, 16, 1],
        n_interior=60,
        n_boundary=20,
        resample_every=25,
        max_steps=60,
        eval_every=20,
        n_eval_points=200,
        seed=42,
    )
    log_a = _train(tmp_path, "det_a", **common)
    log_b = _train(tmp_path, "det_b", **common)

    def strip_wall(rows):
        return [tuple(v for i, v in enumerate(row) if i != 1) for row in rows]

    ok = strip_wall(log_a.rows) == strip_wall(log_b.rows)
    report(
        "criterion 9 determinism",
        ok and len(log_a.rows) > 1,
        f"{len(log_a.rows)} log rows bit-identical across two runs (wall time excluded)",
    )
