"""The benchmark's workloads: full RunConfigs, targets and why each is here.

``config`` is the complete RunConfig of a full-budget run.  The benchmark
replaces only ``seed`` (from ``--seed``), ``output_dir`` (a temporary
directory) and, for the shorter repeat and trace runs, ``max_steps`` and
``max_wall_seconds``.  ``target_l2`` is the relative L2 error that
``time_to_target_s`` and ``steps_to_target`` refer to; a run that never
reaches it lacks those two metrics but does not fail.  The output check is
``final_l2_max``: a full-budget run must end at or below it, unless it is
None.  It sits well above the error every seed tried ends at, so that it
catches an optimizer that stopped converging, not a slow seed.

``expect_calls`` and ``expect_no_calls`` list trace spans (see
``tracing.WRAP_SITES``) that a traced run of the workload must record at
least once, or never.  A traced run that disagrees fails, so a refactor
cannot silently take a layer out of the measurement.
"""

_COMMON_SPANS = (
    "taylor.forward",
    "taylor.backward",
    "network.forward_batch",
    "network.backward_batch",
    "pde.sample_batch",
    "pde.losses",
    "curvature.factor_update",
    "curvature.precondition",
    "linalg.kron_sum_solve",
    "linalg.sym_eig",
    "optim.step",
    "harness.eval_l2",
    "harness.io",
)

WORKLOADS = {
    "poisson2d-kfac": {
        "why": (
            "The paper's desk-scale 2d Poisson problem with kfac: the 31-point line search "
            "makes it forward-heavy (32 operator-column forward passes per step, no Jacobian rows)."
        ),
        "target_l2": 1e-2,
        # Seeds reach 1e-2 anywhere from step 205 to step 360 (seed 31337), so
        # a slower seed would miss it within the 400-step budget; the test suite
        # gives this config 800 steps for 1e-2.  Every seed tried ends at or below
        # 0.0072, on a smooth monotone curve.
        "final_l2_max": 3e-2,
        "config": {
            "problem": "poisson2d_sin",
            "problem_params": {},
            "widths": [2, 64, 1],
            "optimizer": "kfac",
            "lr": 1e-3,
            "momentum": 0.9,
            "ema": 0.9,
            "damping": 1e-5,
            "init_mode": "identity",
            "rcond": 1e-10,
            "n_interior": 900,
            "n_boundary": 120,
            "resample_every": 0,
            "max_steps": 400,
            "max_wall_seconds": 0.0,
            "eval_every": 5,
            "n_eval_points": 2000,
            "seed": 0,
            "output_dir": "runs/out",
        },
        "expect_calls": _COMMON_SPANS + ("optim.line_search",),
        "expect_no_calls": ("curvature.jacobian_rows", "curvature.gramian_vec"),
    },
    "fokker10d-kfac_star": {
        "why": (
            "The nonlinear (9+1)d log-Fokker-Planck residual with kfac_star through two hidden "
            "layers: curvature-heavy (reverse pass, N x D Jacobian rows, Gramian-vector products)."
        ),
        "target_l2": 0.25,
        "final_l2_max": 0.25,
        "config": {
            "problem": "log_fokker_planck",
            "problem_params": {},
            "widths": [10, 64, 64, 1],
            "optimizer": "kfac_star",
            "lr": 1e-3,
            "momentum": 0.0,
            "ema": 0.99,
            "damping": 1e-4,
            "init_mode": "identity",
            "rcond": 1e-10,
            "n_interior": 900,
            "n_boundary": 120,
            "resample_every": 100,
            "max_steps": 120,
            "max_wall_seconds": 0.0,
            "eval_every": 5,
            "n_eval_points": 2000,
            "seed": 0,
            "output_dir": "runs/out",
        },
        "expect_calls": _COMMON_SPANS + ("curvature.jacobian_rows", "curvature.gramian_vec"),
        "expect_no_calls": ("optim.line_search",),
    },
    "poisson100d-kfac_star": {
        "why": (
            "The paper's high-dimensional case, 100d Poisson with kfac_star: column-heavy "
            "(102 columns per point) and a fresh batch every step, so sampling runs each step."
        ),
        "target_l2": 0.5,
        # With a fresh 200-point batch every step the error wanders: at step
        # 100 it lies anywhere from 0.09 to 1.5 across seeds, and seed 1000
        # never gets below 0.66 (it sits near 1.3 from step 15 to step 300).
        # Damping 1e-3 or 1e-2, init_mode "zero" and width 32 were tried too;
        # each leaves some seed above 0.5 at step 100.  So the error is not
        # checked on this workload, and the target only defines the metrics.
        "final_l2_max": None,
        "config": {
            "problem": "poisson_norm2",
            "problem_params": {"dim": 100},
            "widths": [100, 64, 1],
            "optimizer": "kfac_star",
            "lr": 1e-3,
            "momentum": 0.0,
            "ema": 0.99,
            "damping": 1e-4,
            "init_mode": "identity",
            "rcond": 1e-10,
            "n_interior": 200,
            "n_boundary": 100,
            "resample_every": 1,
            "max_steps": 100,
            "max_wall_seconds": 0.0,
            "eval_every": 5,
            "n_eval_points": 2000,
            "seed": 0,
            "output_dir": "runs/out",
        },
        "expect_calls": _COMMON_SPANS + ("curvature.jacobian_rows", "curvature.gramian_vec"),
        "expect_no_calls": ("optim.line_search",),
    },
}
