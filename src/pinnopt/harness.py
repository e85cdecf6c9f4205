"""Run configuration, training loop, evaluation, logging, and the CLI.

:class:`RunConfig` is a :class:`pinnopt.optim.OptimizerConfig` with the
run's own fields added; :func:`run_training` hands it to
:func:`pinnopt.optim.init_train_state` as it is.

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
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import network, optim, pde
from .optim import OptimizerConfig, init_train_state, optimizer_step

__all__ = [
    "RunConfig",
    "TrainLog",
    "CSV_COLUMNS",
    "eval_points",
    "eval_l2",
    "run_training",
    "save_checkpoint",
    "load_checkpoint",
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

#: what :func:`pinnopt.optim.optimizer_step` and a non-finite evaluation error
#: raise: caught only inside the run loop, where they end the run as diverged.
#: A LinAlgError is a ValueError, which ``main`` reports as a config error.
STEP_FAILURES = (FloatingPointError, np.linalg.LinAlgError)


def _stream_seed(seed: int, tag: int, index: int = 0) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True, kw_only=True)
class RunConfig(OptimizerConfig):
    """Flat, JSON-serializable description of one training run: the inherited
    optimizer fields, whose defaults and checks :class:`OptimizerConfig`
    declares, and the run's own fields below, whose ranges ``__post_init__``
    adds.  A ``resample_every`` of None stays None in the config and its
    log; :func:`run_training` then takes the optimizer's default."""

    problem: str
    widths: list
    problem_params: dict = field(default_factory=dict)
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
        """Field types and optimizer ranges, then the run's ranges."""
        super().__post_init__()
        if self.n_interior < 1 or self.n_boundary < 1:
            raise ValueError("batch sizes must be positive")
        if self.max_steps < 0 or self.eval_every < 1 or self.n_eval_points < 1:
            raise ValueError("step and evaluation counts must be positive")
        if self.max_wall_seconds < 0:
            raise ValueError("max_wall_seconds must be >= 0 (0 means no wall budget)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.resample_every is not None and self.resample_every < 0:
            raise ValueError("resample_every must be >= 0 (0 keeps the batch fixed)")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a run config must be a JSON object, got {d!r}")
        fields = dataclasses.fields(cls)
        unknown = set(d) - {f.name for f in fields}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        required = {
            f.name
            for f in fields
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        }
        missing = sorted(required - set(d))
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class TrainLog:
    """Rows in :data:`CSV_COLUMNS` order, and the step that failed if the run diverged."""

    rows: list = field(default_factory=list)
    diverged_step: int | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_step is not None

    @property
    def final(self):
        return self.rows[-1]


def eval_points(problem, n_points: int, seed: int) -> tuple:
    """The evaluation set of :func:`eval_l2`: ``(points, true solution on them)``.

    ``n_points`` uniform points of the problem's box, drawn from ``seed``;
    a run draws them once and evaluates every logged row on them.
    """
    if n_points < 1:
        raise ValueError("need at least one evaluation point")
    rng = np.random.default_rng(seed)
    pts = pde.uniform_box(rng, problem.lower, problem.upper, (n_points, problem.dim))
    u_true = problem.true_solution(pts)
    if float(u_true @ u_true) <= 0.0:
        raise ValueError("true solution is identically zero on the evaluation set")
    return pts, u_true


def eval_l2(params, points: tuple) -> float:
    """Relative L2 error against the true solution on an evaluation set of :func:`eval_points`."""
    pts, u_true = points
    u, _ = network.forward_batch(params, pts)
    return float(np.sqrt(float((u - u_true) @ (u - u_true)) / float(u_true @ u_true)))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _CsvWriter:
    """Incremental CSV writer; each row is flushed as one complete line."""

    def __init__(self, path, header_meta: str):
        self.fh = open(path, "w", encoding="utf-8", newline="\n")
        self.fh.write(f"# {header_meta}\n")
        self.fh.write(",".join(CSV_COLUMNS) + "\n")
        self.fh.flush()

    def row(self, values):
        self.fh.write(",".join([str(int(values[0]))] + [_fmt(v) for v in values[1:]]) + "\n")
        self.fh.flush()

    def comment(self, text):
        self.fh.write(f"# {text}\n")
        self.fh.flush()

    def close(self):
        self.fh.close()


def save_checkpoint(path, params, config: RunConfig | None = None):
    """Write parameters (and the run config, if given) as JSON.

    Layer values are stored row-major; floats round-trip exactly through
    ``repr``.  ``activation`` is always ``"tanh"``.
    """
    payload = {
        "widths": list(params.widths),
        "activation": "tanh",
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
    """Read a checkpoint; returns ``(params, config_dict_or_None)``.

    Raises ValueError for an activation other than tanh, a net whose output
    width is not 1, and a payload that is not an object with a non-empty
    ``layers`` list of well-formed, finite layers (``json`` reads the
    ``NaN`` and ``Infinity`` literals).
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not isinstance(payload.get("layers"), list) or not payload["layers"]:
        raise ValueError(f"checkpoint {path} must be a JSON object with a non-empty 'layers' list")
    activation = payload.get("activation", "tanh")
    if activation != "tanh":
        raise ValueError(f"unsupported activation {activation!r}; only 'tanh' is implemented")
    weights, biases = [], []
    for i, layer in enumerate(payload["layers"]):
        try:
            shape = tuple(layer["shape"])
            weights.append(np.array(layer["weight"], dtype=np.float64).reshape(shape))
            biases.append(np.array(layer["bias"], dtype=np.float64))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"checkpoint layer {i} is malformed: {type(exc).__name__}: {exc}") from None
    params = network.Parameters(weights, biases)
    if not np.all(np.isfinite(params.vector)):
        raise ValueError(f"checkpoint {path} has non-finite parameters")
    if params.widths[-1] != 1:
        raise ValueError(f"checkpoint {path} has output width {params.widths[-1]}, not 1")
    return params, payload.get("config")


def run_training(config: RunConfig) -> TrainLog:
    """Train per the config, streaming the log to ``output_dir/log.csv``.

    Row t's loss columns are step t's batch at the parameters before its
    update (what the step evaluates); its ``l2_rel_error`` is after it.

    A failed step (see :func:`pinnopt.optim.optimizer_step`) or a
    non-finite evaluation error marks the run diverged and stops it: step
    t writes no row, one ``# diverged step=t: <reason>`` line ends the log,
    and the checkpoint, which is always written, holds the last committed
    parameters.  The run also stops after ``max_steps`` or, with a row for
    its last step, once ``max_wall_seconds`` have passed.
    """
    problem = pde.make_problem(config.problem, **config.problem_params)
    params = network.init_params(config.widths, _stream_seed(config.seed, STREAM_INIT))
    if params.input_dim != problem.dim:
        raise ValueError(
            f"network input width {params.input_dim} does not match problem dim {problem.dim}"
        )
    state = init_train_state(params, config)
    every = optim.KINDS[config.optimizer].resample_every if config.resample_every is None else config.resample_every

    os.makedirs(config.output_dir, exist_ok=True)
    meta = json.dumps(
        {
            "format": "pinnopt-log-v1",
            "rng": "numpy PCG64; SeedSequence(entropy=seed, spawn_key=(tag, k)); "
            "tags init=0 batch=1 eval=2",
            "config": config.to_dict(),
        },
        sort_keys=True,
    )
    points = eval_points(problem, config.n_eval_points, _stream_seed(config.seed, STREAM_EVAL))
    writer = _CsvWriter(os.path.join(config.output_dir, "log.csv"), meta)

    log = TrainLog()
    start = time.perf_counter()

    def record(step, l_int, l_bnd, alpha, mu):
        err = eval_l2(state.params, points)
        if not math.isfinite(err):
            raise FloatingPointError(f"the evaluation error is {err}")
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
    t = 0
    try:
        # the first split of the run: the workspace's worker thread starts here
        [(l_int, l_bnd)] = optim.evaluate_losses([state.params], batch, problem, state.workspace)
        record(0, l_int, l_bnd, 0.0, 0.0)
        for t in range(1, config.max_steps + 1):
            if every > 0 and t > 1 and (t - 1) % every == 0:
                # step t trains on batch k = (t - 1) // every, drawn from stream (BATCH, k)
                seed = _stream_seed(config.seed, STREAM_BATCH, (t - 1) // every)
                batch = pde.sample_batch(problem, config.n_interior, config.n_boundary, seed)
            info = optimizer_step(state, batch, problem)
            out_of_time = 0 < config.max_wall_seconds < time.perf_counter() - start
            if t % config.eval_every == 0 or t == config.max_steps or out_of_time:
                record(t, info.loss_interior, info.loss_boundary, info.alpha, info.mu)
            if out_of_time:
                break
    except STEP_FAILURES as exc:
        log.diverged_step = t
        writer.comment(f"diverged step={t}: {exc}")
    finally:
        state.workspace.close()
        writer.close()
        save_checkpoint(os.path.join(config.output_dir, "checkpoint.json"), state.params, config)
    return log


# ---------------------------------------------------------------------------
# CLI

def _cmd_train(args) -> int:
    config = RunConfig.from_json(args.config)
    if args.output_dir:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    log = run_training(config)
    if log.diverged:
        print(f"DIVERGED at step {log.diverged_step}")
        return 3
    final = log.final
    print(f"finished step={int(final[0])} loss={final[4]:.6e} l2_rel_error={final[5]:.6e}")
    return 0


def _cmd_eval(args) -> int:
    params, cfg = load_checkpoint(args.checkpoint)
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise ValueError(f"checkpoint config must be a JSON object, got {cfg!r}")

    def stored(name, default):
        """The checkpoint's value of RunConfig field ``name``, checked by the field's type."""
        value = cfg.get(name, default)
        RunConfig.check_field(name, value)
        return value

    name = args.problem or stored("problem", "")
    if not name:
        print("error: no problem name given and none stored in the checkpoint", file=sys.stderr)
        return 2
    if args.problem_params:
        problem_params = json.loads(args.problem_params)
        RunConfig.check_field("problem_params", problem_params)
    else:
        problem_params = stored("problem_params", {})
    problem = pde.make_problem(name, **problem_params)
    n_points = args.n_points if args.n_points is not None else stored("n_eval_points", RunConfig.n_eval_points)
    seed = args.seed if args.seed is not None else stored("seed", RunConfig.seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    err = eval_l2(params, eval_points(problem, n_points, _stream_seed(seed, STREAM_EVAL)))
    print(_fmt(err))
    return 0 if math.isfinite(err) else 3


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
