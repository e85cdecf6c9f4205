"""Run configuration, training loop, evaluation, logging, and the CLI.

Reproducibility model: from the run seed, independent sub-streams for
initialization, batch sampling and evaluation are derived with numpy's
``SeedSequence(entropy=seed, spawn_key=(tag, index))`` (PCG64 generators).
The stream tags are recorded in the log header; identical configs produce
bit-identical logs except for the wall-time column.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import curvature, linalg, network, oracle, pde
from .optim import (
    LineSearchError,
    OptimizerConfig,
    init_train_state,
    optimizer_step,
)

__all__ = [
    "RunConfig",
    "TrainLog",
    "CSV_COLUMNS",
    "eval_l2",
    "run_training",
    "save_checkpoint",
    "load_checkpoint",
    "run_checks",
    "main",
]

CSV_COLUMNS = (
    "step",
    "wall_time_s",
    "loss_interior",
    "loss_boundary",
    "loss_total",
    "l2_rel_error",
    "alpha",
    "mu",
)

# sub-stream tags hung off the run seed
STREAM_INIT = 0
STREAM_BATCH = 1
STREAM_EVAL = 2

OUTPUT_DIR_ENV = "PINNOPT_OUTPUT_DIR"

#: default batch re-sampling period per optimizer (0 = never re-sample)
DEFAULT_RESAMPLE_EVERY = {"sgd": 1, "adam": 1, "engd": 1, "kfac": 100, "kfac_star": 100}


#: failures inside a step that end the run as diverged; the linear-algebra
#: ones are ValueErrors, which ``main`` would otherwise report as config errors
STEP_FAILURES = (
    LineSearchError,
    FloatingPointError,
    np.linalg.LinAlgError,
    linalg.NotPositiveSemidefiniteError,
    linalg.NotSymmetricError,
)


def _stream_seed(seed: int, tag: int, index: int = 0) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return int(ss.generate_state(1)[0])


@dataclass
class RunConfig:
    """Flat, JSON-serializable description of one training run."""

    problem: str
    widths: list
    optimizer: str
    problem_params: dict = field(default_factory=dict)
    lr: float = 1e-3
    momentum: float = 0.0
    ema: float = 0.9
    damping: float = 1e-2
    init_mode: str = "identity"
    rcond: float = 1e-10
    n_interior: int = 900
    n_boundary: int = 120
    resample_every: int | None = None
    max_steps: int = 1000
    max_wall_seconds: float = 0.0
    eval_every: int = 100
    n_eval_points: int = 2000
    seed: int = 0
    output_dir: str = "runs/out"

    def __post_init__(self):
        if self.n_interior < 1 or self.n_boundary < 1:
            raise ValueError("batch sizes must be positive")
        if self.max_steps < 0 or self.eval_every < 1 or self.n_eval_points < 1:
            raise ValueError("step and evaluation counts must be positive")
        if self.resample_every is None:
            self.resample_every = DEFAULT_RESAMPLE_EVERY[require_optimizer(self.optimizer)]
        if self.resample_every < 0:
            raise ValueError("resample_every must be >= 0 (0 keeps the batch fixed)")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            kind=self.optimizer,
            lr=self.lr,
            momentum=self.momentum,
            ema=self.ema,
            damping=self.damping,
            init_mode=self.init_mode,
            rcond=self.rcond,
        )


def require_optimizer(name: str) -> str:
    from .optim import OPTIMIZER_KINDS

    if name not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer {name!r}; known: {OPTIMIZER_KINDS}")
    return name


@dataclass
class TrainLog:
    """Rows in :data:`CSV_COLUMNS` order plus a divergence flag."""

    rows: list = field(default_factory=list)
    diverged: bool = False

    def column(self, name: str) -> list:
        idx = CSV_COLUMNS.index(name)
        return [row[idx] for row in self.rows]

    @property
    def final(self):
        return self.rows[-1]


def eval_l2(params, problem, n_points: int, seed: int) -> float:
    """Relative L2 error against the true solution on a seeded uniform set."""
    if n_points < 1:
        raise ValueError("need at least one evaluation point")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(problem.lower, problem.upper, size=(n_points, problem.dim))
    u, _ = network.forward_batch(params, pts)
    u_true = problem.true_solution(pts)
    denom = float(u_true @ u_true)
    if denom <= 0.0:
        raise ValueError("true solution is identically zero on the evaluation set")
    return float(np.sqrt(float((u - u_true) @ (u - u_true)) / denom))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _CsvWriter:
    """Incremental CSV writer; each row is flushed as one complete line."""

    def __init__(self, path, header_meta: str):
        self.fh = open(path, "w", encoding="utf-8", newline="\n") if path else None
        if self.fh:
            self.fh.write(f"# {header_meta}\n")
            self.fh.write(",".join(CSV_COLUMNS) + "\n")
            self.fh.flush()

    def row(self, values):
        if self.fh:
            self.fh.write(",".join([str(int(values[0]))] + [_fmt(v) for v in values[1:]]) + "\n")
            self.fh.flush()

    def comment(self, text):
        if self.fh:
            self.fh.write(f"# {text}\n")
            self.fh.flush()

    def close(self):
        if self.fh:
            self.fh.close()
            self.fh = None


def save_checkpoint(path, params, config: RunConfig | None = None):
    """Write parameters (and the run config, if given) as JSON.

    Layer values are stored row-major; floats round-trip exactly through
    ``repr``.
    """
    payload = {
        "widths": list(params.widths),
        "activation": params.activation,
        "layers": [
            {
                "shape": list(w.shape),
                "weight": [float(v) for v in w.ravel()],
                "bias": [float(v) for v in b.ravel()],
            }
            for w, b in zip(params.weights, params.biases)
        ],
    }
    if config is not None:
        payload["config"] = config.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path):
    """Read a checkpoint; returns ``(params, config_dict_or_None)``."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    weights, biases = [], []
    for layer in payload["layers"]:
        shape = tuple(layer["shape"])
        weights.append(np.array(layer["weight"], dtype=np.float64).reshape(shape))
        biases.append(np.array(layer["bias"], dtype=np.float64))
    params = network.Parameters(weights, biases, payload.get("activation", "tanh"))
    return params, payload.get("config")


def run_training(config: RunConfig) -> TrainLog:
    """Train per the config, streaming the log to ``output_dir/log.csv``.

    A non-finite loss, or a numerical failure inside a step (a failed line
    search, non-finite parameters, a failed or rejected factorization; see
    :data:`STEP_FAILURES`), marks the run diverged and stops it; the log row
    written for a non-finite loss carries the non-finite values, a failure
    writes a ``# diverged: ...`` line.  A final checkpoint is always
    written.
    """
    problem = pde.make_problem(config.problem, **config.problem_params)
    arch = network.Architecture(tuple(config.widths), "tanh")
    if arch.input_dim != problem.dim:
        raise ValueError(
            f"network input width {arch.input_dim} does not match problem dim {problem.dim}"
        )
    params = network.init_params(arch, _stream_seed(config.seed, STREAM_INIT))
    state = init_train_state(params, config.optimizer_config())

    out_dir = os.environ.get(OUTPUT_DIR_ENV) or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    meta = json.dumps(
        {
            "format": "pinnopt-log-v1",
            "rng": "numpy PCG64; SeedSequence(entropy=seed, spawn_key=(tag, k)); "
            "tags init=0 batch=1 eval=2",
            "config": config.to_dict(),
        },
        sort_keys=True,
    )
    writer = _CsvWriter(os.path.join(out_dir, "log.csv"), meta)
    eval_seed = _stream_seed(config.seed, STREAM_EVAL)

    log = TrainLog()
    start = time.perf_counter()

    def record(step, l_int, l_bnd, alpha, mu):
        err = eval_l2(state.params, problem, config.n_eval_points, eval_seed)
        row = (
            step,
            time.perf_counter() - start,
            l_int,
            l_bnd,
            l_int + l_bnd,
            err,
            alpha,
            mu,
        )
        log.rows.append(row)
        writer.row(row)

    batch = pde.sample_batch(
        problem, config.n_interior, config.n_boundary, _stream_seed(config.seed, STREAM_BATCH, 0)
    )
    l_int, l_bnd = _initial_losses(state.params, batch, problem)
    record(0, l_int, l_bnd, 0.0, 0.0)

    resample_count = 0
    try:
        for t in range(1, config.max_steps + 1):
            if (
                config.resample_every > 0
                and t > 1
                and (t - 1) % config.resample_every == 0
            ):
                resample_count += 1
                batch = pde.sample_batch(
                    problem,
                    config.n_interior,
                    config.n_boundary,
                    _stream_seed(config.seed, STREAM_BATCH, resample_count),
                )
            info = optimizer_step(state, batch, problem)
            if not np.isfinite(info.loss_total):
                log.diverged = True
                record(t, info.loss_interior, info.loss_boundary, info.alpha, info.mu)
                writer.comment(f"diverged step={t}")
                break
            if t % config.eval_every == 0 or t == config.max_steps:
                record(t, info.loss_interior, info.loss_boundary, info.alpha, info.mu)
            if config.max_wall_seconds > 0 and time.perf_counter() - start > config.max_wall_seconds:
                if t % config.eval_every != 0 and t != config.max_steps:
                    record(t, info.loss_interior, info.loss_boundary, info.alpha, info.mu)
                break
    except STEP_FAILURES as exc:
        log.diverged = True
        writer.comment(f"diverged: {exc}")
    finally:
        writer.close()
        save_checkpoint(os.path.join(out_dir, "checkpoint.json"), state.params, config)
    return log


def _initial_losses(params, batch, problem):
    from .optim import evaluate_losses

    return evaluate_losses(params, batch, problem)


# ---------------------------------------------------------------------------
# built-in verification checks (CLI `check` subcommand)

def run_checks(fast: bool = False) -> list:
    """Cross-check the fast engines against the brute-force references.

    Returns ``(name, ok, detail)`` triples; all checks use fixed seeds so
    the outcome is reproducible.
    """
    from . import taylor
    from .optim import evaluate_batch

    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    rng = np.random.default_rng(7)

    # symmetric eigendecomposition reconstruction
    m = rng.standard_normal((6, 6))
    m = m + m.T
    evals, q = linalg.sym_eig(m)
    err = np.max(np.abs((q * evals) @ q.T - m))
    check("sym_eig reconstruction", err <= 1e-8 * np.max(np.abs(m)), f"err={err:.2e}")

    # Kronecker-sum solve against a dense solve
    def spd(k):
        a = rng.standard_normal((k, k))
        return a @ a.T + k * np.eye(k)

    a1, b1, a2, b2 = spd(3), spd(4), spd(3), spd(4)
    g = rng.standard_normal(12)
    v = linalg.kron_sum_solve(a1, b1, a2, b2, g)
    dense = np.kron(a1, b1) + np.kron(a2, b2)
    err = np.linalg.norm(dense @ v - g) / np.linalg.norm(g)
    check("kron_sum_solve vs dense", err <= 1e-8, f"rel err={err:.2e}")

    # operator-column forward pass against finite differences
    arch = network.Architecture((2, 8, 1))
    params = network.init_params(arch, 3)
    coeffs = taylor.OperatorCoeffs.laplacian(2)
    pts = rng.uniform(0.1, 0.9, size=(5, 2))
    _, out = taylor.taylor_forward(params, pts, coeffs)
    worst_g = worst_l = 0.0
    for i, x in enumerate(pts):
        f = lambda y: network.forward(params, y)[0]
        worst_g = max(worst_g, oracle.rel_error(out.gradient[i], oracle.fd_gradient(f, x)))
        worst_l = max(worst_l, oracle.rel_error(out.operator[i], oracle.fd_operator(f, x, coeffs)))
    check("gradient column vs finite differences", worst_g <= 1e-8, f"rel err={worst_g:.2e}")
    check("operator column vs finite differences", worst_l <= 1e-6, f"rel err={worst_l:.2e}")

    # reverse pass against finite differences of the forward operator
    problem = pde.make_problem("poisson2d_sin")
    batch = pde.sample_batch(problem, 4, 4, seed=11)
    point = batch.interior[:1]
    small = network.init_params(network.Architecture((2, 5, 1)), 5)
    states, _ = taylor.taylor_forward(small, point, coeffs)
    seeds = np.zeros((1, 4))
    seeds[0, 3] = 1.0
    tg = taylor.taylor_backward(small, states, seeds, coeffs)
    pairs = curvature.layer_pairs(small, states, tg.layer_grads)
    analytic = network.mats_to_vec([taylor.param_grad_matrix(z, g) for z, g in pairs])
    vec = network.params_to_vec(small)
    fd = np.zeros_like(vec)
    h = 1e-6
    for k in range(vec.size):
        vp, vm = vec.copy(), vec.copy()
        vp[k] += h
        vm[k] -= h
        _, op = taylor.taylor_forward(network.vec_to_params(vp, small), point, coeffs)
        _, om = taylor.taylor_forward(network.vec_to_params(vm, small), point, coeffs)
        fd[k] = (op.operator[0] - om.operator[0]) / (2 * h)
    err = oracle.rel_error(analytic, fd)
    check("reverse pass vs finite differences", err <= 1e-5, f"rel err={err:.2e}")

    # independent residual-Jacobian oracle against the engine rows
    if not fast:
        rows_int, _ = curvature.residual_jacobian_rows(
            small, pde.Batch(point, batch.boundary[:1], batch.boundary_targets[:1]), problem
        )
        jac = oracle.fd_residual_jacobian(problem, small, point[0])
        err = oracle.rel_error(rows_int[0], jac)
        check("residual Jacobian oracle", err <= 1e-5, f"rel err={err:.2e}")

    # Kronecker factors against a literal-loop transcription
    net = network.init_params(network.Architecture((2, 4, 1)), 9)
    batch3 = pde.sample_batch(problem, 3, 3, seed=13)
    ev = evaluate_batch(net, batch3, problem)
    kf = curvature.init_kfac_state(net, ema=0.0, damping=1.0, init_mode="zero")
    curvature.interior_factor_update(kf, ev.interior)
    # the engine keeps only the points for layer 0; the reference uses the full input state
    ref_in = [taylor.initial_state(batch3.interior)] + [z for z, _ in ev.interior[1:]]
    worst = 0.0
    for l, (_, g) in enumerate(ev.interior):
        n, s, h = ref_in[l].shape
        z = np.zeros((n, s, h + 1))  # bias entry: 1 in the value column
        z[:, :, :h] = ref_in[l]
        z[:, 0, h] = 1.0
        a_ref = sum(
            np.outer(z[i, j], z[i, j]) for i in range(n) for j in range(s)
        ) / (n * s)
        b_ref = sum(
            np.outer(g[i, j], g[i, j]) for i in range(n) for j in range(s)
        ) / n
        worst = max(worst, np.max(np.abs(kf.a_interior[l] - a_ref)))
        worst = max(worst, np.max(np.abs(kf.b_interior[l] - b_ref)))
    check("interior factors vs literal loops", worst <= 1e-12, f"max err={worst:.2e}")

    # rank-1 exactness of the condition-term factors
    lin = network.Parameters([np.array([[1.5, -2.0]])], [np.array([0.5])])
    one = pde.Batch(np.zeros((0, 2)), np.array([[3.0, 4.0]]), np.array([0.0]))
    gram = curvature.exact_gramian(lin, one, problem)
    kf1 = curvature.init_kfac_state(lin, ema=0.0, damping=1.0, init_mode="zero")
    _, trace = network.forward_batch(lin, one.boundary)
    grads = network.backward_batch(lin, trace, np.ones(1))
    curvature.boundary_factor_update(kf1, curvature.boundary_pairs(trace, grads))
    err = np.max(np.abs(np.kron(kf1.a_boundary[0], kf1.b_boundary[0]) - gram))
    check("rank-1 condition-factor exactness", err <= 1e-12, f"max err={err:.2e}")

    # true-solution residuals across the catalog, derivatives from stencils
    worst = _catalog_residual_worst(fast)
    check("catalog true-solution residuals (FD)", worst <= 1e-5, f"max |r|={worst:.2e}")

    return results


def _catalog_residual_worst(fast: bool) -> float:
    """Max |residual| of the true solutions with stencil derivatives."""
    entries = [
        ("poisson2d_sin", {}),
        ("heat", {"spatial_dim": 1}),
        ("log_fokker_planck", {}),
    ]
    if not fast:
        entries += [
            ("poisson_cos_sum", {}),
            ("poisson_harmonic_mixed", {}),
            ("poisson_norm2", {"dim": 7}),
            ("heat", {"spatial_dim": 4}),
        ]
    worst = 0.0
    for name, make_kwargs in entries:
        problem = pde.make_problem(name, **make_kwargs)
        rng = np.random.default_rng(23)
        # keep a margin from the box edge so the stencils stay inside
        span = problem.upper - problem.lower
        x = rng.uniform(problem.lower + 0.01 * span, problem.upper - 0.01 * span, size=(5, problem.dim))

        def f_of(xi):
            return lambda y: float(problem.true_solution(y[None, :])[0])

        for xi in x:
            f = f_of(xi)
            u = np.array([f(xi)])
            grad = oracle.fd_gradient(f, xi)[None, :]
            op = np.array([oracle.fd_operator(f, xi, problem.coeffs)])
            r = problem.residual(xi[None, :], u, grad, op)
            worst = max(worst, float(np.max(np.abs(r))))
    return worst


# ---------------------------------------------------------------------------
# CLI

def _cmd_train(args) -> int:
    config = RunConfig.from_json(args.config)
    if args.output_dir:
        config.output_dir = args.output_dir
    log = run_training(config)
    final = log.final
    print(
        f"finished step={int(final[0])} loss={final[4]:.6e} "
        f"l2_rel_error={final[5]:.6e}{' DIVERGED' if log.diverged else ''}"
    )
    return 3 if log.diverged else 0


def _cmd_eval(args) -> int:
    params, cfg = load_checkpoint(args.checkpoint)
    cfg = cfg or {}
    name = args.problem or cfg.get("problem")
    if not name:
        print("error: no problem name given and none stored in the checkpoint", file=sys.stderr)
        return 2
    problem_params = json.loads(args.problem_params) if args.problem_params else cfg.get(
        "problem_params", {}
    )
    problem = pde.make_problem(name, **problem_params)
    n_points = args.n_points or cfg.get("n_eval_points", 2000)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    err = eval_l2(params, problem, n_points, _stream_seed(seed, STREAM_EVAL))
    print(_fmt(err))
    return 0


def _cmd_check(args) -> int:
    results = run_checks(fast=args.fast)
    failed = 0
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinnopt",
        description="Train multi-layer-perceptron PDE solvers with "
        "curvature-preconditioned optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training job from a JSON config")
    p_train.add_argument("--config", required=True, help="path to the JSON run config")
    p_train.add_argument("--output-dir", help="override the config's output directory")
    p_train.set_defaults(fn=_cmd_train)

    p_eval = sub.add_parser("eval", help="relative L2 error of a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--problem", help="problem name (defaults to the checkpoint's)")
    p_eval.add_argument("--problem-params", help="JSON dict of problem parameters")
    p_eval.add_argument("--n-points", type=int, help="evaluation set size")
    p_eval.add_argument("--seed", type=int, help="base seed (eval stream is derived)")
    p_eval.set_defaults(fn=_cmd_eval)

    p_check = sub.add_parser("check", help="run the built-in verification checks")
    p_check.add_argument("--fast", action="store_true", help="skip the slowest checks")
    p_check.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
