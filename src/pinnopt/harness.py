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

#: default batch re-sampling period per optimizer (0 = never re-sample)
DEFAULT_RESAMPLE_EVERY = {"sgd": 1, "adam": 1, "engd": 1, "kfac": 100, "kfac_star": 100}


#: what :func:`pinnopt.optim.optimizer_step` and a non-finite evaluation error
#: raise: caught only inside the run loop, where they end the run as diverged.
#: A LinAlgError is a ValueError, which ``main`` reports as a config error.
STEP_FAILURES = (FloatingPointError, np.linalg.LinAlgError)


#: the types a RunConfig field accepts, by its annotation (bool is never an int)
_FIELD_TYPES = {
    "str": str,
    "list": (list, tuple),
    "dict": dict,
    "int": int,
    "int | None": (int, type(None)),
    "float": (int, float),
}


def _check_field(f: dataclasses.Field, value):
    """Raise ValueError unless ``value`` fits RunConfig field ``f``'s type (and is finite, for a float).

    ``f.type`` is the annotation's text: both modules postpone annotations.
    """
    if not isinstance(value, _FIELD_TYPES[f.type]) or isinstance(value, bool):
        raise ValueError(f"config field {f.name} must be {f.type}, got {value!r}")
    if f.type == "float" and not math.isfinite(value):
        raise ValueError(f"config field {f.name} must be finite, got {value!r}")


def _stream_seed(seed: int, tag: int, index: int = 0) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return int(ss.generate_state(1)[0])


@dataclass(kw_only=True)
class RunConfig(OptimizerConfig):
    """Flat, JSON-serializable description of one training run: the inherited
    optimizer fields, whose defaults and checks :class:`OptimizerConfig`
    declares, and the run's own fields below."""

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
        for f in dataclasses.fields(self):
            _check_field(f, getattr(self, f.name))
        if self.n_interior < 1 or self.n_boundary < 1:
            raise ValueError("batch sizes must be positive")
        if self.max_steps < 0 or self.eval_every < 1 or self.n_eval_points < 1:
            raise ValueError("step and evaluation counts must be positive")
        if self.max_wall_seconds < 0:
            raise ValueError("max_wall_seconds must be >= 0 (0 means no wall budget)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.validate()
        if self.resample_every is None:
            self.resample_every = DEFAULT_RESAMPLE_EVERY[self.optimizer]
        if self.resample_every < 0:
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
    """Rows in :data:`CSV_COLUMNS` order plus a divergence flag."""

    rows: list = field(default_factory=list)
    diverged: bool = False

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

    Raises ValueError for an activation other than tanh and for a payload
    that is not an object with a non-empty ``layers`` list of well-formed,
    finite layers (``json`` reads the ``NaN`` and ``Infinity`` literals).
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
    return params, payload.get("config")


def run_training(config: RunConfig) -> TrainLog:
    """Train per the config, streaming the log to ``output_dir/log.csv``.

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
    writer = _CsvWriter(os.path.join(config.output_dir, "log.csv"), meta)
    eval_seed = _stream_seed(config.seed, STREAM_EVAL)

    log = TrainLog()
    start = time.perf_counter()

    def record(step, l_int, l_bnd, alpha, mu):
        err = eval_l2(state.params, problem, config.n_eval_points, eval_seed)
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
    resample_count = t = 0
    try:
        # the first split of the run: the workspace's worker thread starts here
        [(l_int, l_bnd)] = optim.evaluate_losses([state.params], batch, problem, state.workspace)
        record(0, l_int, l_bnd, 0.0, 0.0)
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
            out_of_time = 0 < config.max_wall_seconds < time.perf_counter() - start
            if t % config.eval_every == 0 or t == config.max_steps or out_of_time:
                record(t, info.loss_interior, info.loss_boundary, info.alpha, info.mu)
            if out_of_time:
                break
    except STEP_FAILURES as exc:
        log.diverged = True
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
        config.output_dir = args.output_dir
    log = run_training(config)
    if not log.rows:  # the step-0 evaluation error was non-finite
        print("DIVERGED at step 0")
        return 3
    final = log.final
    print(
        f"finished step={int(final[0])} loss={final[4]:.6e} "
        f"l2_rel_error={final[5]:.6e}{' DIVERGED' if log.diverged else ''}"
    )
    return 3 if log.diverged else 0


def _cmd_eval(args) -> int:
    params, cfg = load_checkpoint(args.checkpoint)
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise ValueError(f"checkpoint config must be a JSON object, got {cfg!r}")
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}

    def stored(name, default):
        """The checkpoint's value of RunConfig field ``name``, checked by the field's type."""
        value = cfg.get(name, default)
        _check_field(fields[name], value)
        return value

    name = args.problem or stored("problem", "")
    if not name:
        print("error: no problem name given and none stored in the checkpoint", file=sys.stderr)
        return 2
    problem_params = json.loads(args.problem_params) if args.problem_params else stored("problem_params", {})
    if not isinstance(problem_params, dict):
        raise ValueError(f"problem parameters must be a JSON object, got {problem_params!r}")
    problem = pde.make_problem(name, **problem_params)
    n_points = args.n_points if args.n_points is not None else stored("n_eval_points", 2000)
    seed = args.seed if args.seed is not None else stored("seed", 0)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    err = eval_l2(params, problem, n_points, _stream_seed(seed, STREAM_EVAL))
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
