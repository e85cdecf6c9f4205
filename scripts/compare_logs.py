#!/usr/bin/env python3
"""Bit-identity check: training logs and checkpoints of a baseline revision against the working tree.

Usage (from the repository root)::

    python3 scripts/compare_logs.py --baseline HEAD

The committed files of ``--baseline`` are exported with
``paired_bench.export_revision``.  Each tree then trains the same 40
configs in one child process of its own, through its own
``pinnopt.harness.run_training``, with BLAS and OpenMP capped at one
thread:

* the three ``perfbench/workloads.py`` configs of the working tree at 25
  steps with ``eval_every`` 1, seeds 1 and 2;
* each of poisson2d_sin, poisson_cos_sum, heat and log_fokker_planck with
  each of the five optimizers at 15 steps (net [d, 32, 32, 1], 201 interior
  points, an odd count so that the two halves of a split pass differ by a
  row, 60 condition points, momentum 0.9 for kfac and sgd);
* poisson2d_sin with kfac, kfac_star and engd as above but with
  ``init_mode`` "zero", the other start of the curvature (every other
  config starts from the identity);
* poisson2d_sin with engd as above but with ``ema`` 0, so that engd keeps
  no moving average of its Gramian (every other engd config keeps one);
* each of poisson_cos_sum and log_fokker_planck with each of the five
  optimizers as above but with one hidden layer (net [d, 32, 1]), whose
  record the package keeps in closed form.

For every config the script compares each ``log.csv`` row in every column
except ``wall_time_s``, the log's comment lines after the header (the
header names the output directory, which differs), and the ``layers`` of
``checkpoint.json``.  It prints one line per config; for a log that
differs, the line names the step of the first differing row and the
largest relative difference over that row's columns, so that rounding
drift can be told from a wrong formula.  It exits 1 if any config differs
or failed in either tree.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import paired_bench

ROOT = paired_bench.ROOT
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WALL_COLUMN = 1  # wall_time_s in harness.CSV_COLUMNS

# run in each tree's child: train every config of the JSON file into its own directory
RUNNER = """
import json, sys, traceback
sys.path.insert(0, sys.argv[1])
from pinnopt.harness import RunConfig, run_training
with open(sys.argv[2], encoding="utf-8") as fh:
    configs = json.load(fh)
for name, cfg in configs.items():
    try:
        run_training(RunConfig.from_dict(cfg))
    except Exception:
        with open(cfg["output_dir"] + ".error", "w", encoding="utf-8") as fh:
            fh.write(traceback.format_exc())
"""

PROBLEMS = (("poisson2d_sin", 2), ("poisson_cos_sum", 5), ("heat", 2), ("log_fokker_planck", 10))
OPTIMIZERS = ("kfac", "kfac_star", "engd", "sgd", "adam")


def configs() -> dict:
    """The 40 configs by name, without ``output_dir``."""
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in (1, 2):
            out[f"{name}-seed{seed}"] = dict(
                workload["config"], seed=seed, max_steps=25, eval_every=1, max_wall_seconds=0.0
            )
    for problem, dim in PROBLEMS:
        for optimizer in OPTIMIZERS:
            out[f"{problem}-{optimizer}"] = {
                "problem": problem,
                "widths": [dim, 32, 32, 1],
                "optimizer": optimizer,
                "momentum": 0.9 if optimizer in ("kfac", "sgd") else 0.0,
                "n_interior": 201,
                "n_boundary": 60,
                "max_steps": 15,
                "eval_every": 1,
                "n_eval_points": 500,
                "seed": 3,
            }
    for optimizer in ("kfac", "kfac_star", "engd"):
        out[f"poisson2d_sin-{optimizer}-zero"] = dict(out[f"poisson2d_sin-{optimizer}"], init_mode="zero")
    out["poisson2d_sin-engd-ema0"] = dict(out["poisson2d_sin-engd"], ema=0.0)
    for problem, dim in PROBLEMS:
        if problem in ("poisson_cos_sum", "log_fokker_planck"):
            for optimizer in OPTIMIZERS:
                out[f"{problem}-{optimizer}-1hidden"] = dict(out[f"{problem}-{optimizer}"], widths=[dim, 32, 1])
    return out


def run_tree(tree: str, out_dir: str, cfgs: dict) -> None:
    """Train every config with ``tree``'s package into ``out_dir/<name>``."""
    os.makedirs(out_dir)
    path = os.path.join(out_dir, "configs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({name: dict(cfg, output_dir=os.path.join(out_dir, name)) for name, cfg in cfgs.items()}, fh)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    subprocess.run([sys.executable, "-c", RUNNER, os.path.join(tree, "src"), path], env=env, check=True)


def read_run(run_dir: str):
    """``(log rows without wall time, comment lines after the header, checkpoint layers)``, or the error."""
    if os.path.exists(run_dir + ".error"):
        with open(run_dir + ".error", encoding="utf-8") as fh:
            return "error: " + fh.read().strip().splitlines()[-1]
    with open(os.path.join(run_dir, "log.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    rows = [[c for i, c in enumerate(line.split(",")) if i != WALL_COLUMN] for line in lines if not line.startswith("#")]
    comments = [line for line in lines if line.startswith("#")]
    with open(os.path.join(run_dir, "checkpoint.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    return rows, comments, layers


def largest_relative_difference(b_row, c_row) -> float:
    """The largest ``|b - c| / max(|b|, |c|)`` over the columns of two log rows (inf for a NaN in one)."""
    worst = 0.0
    for b, c in zip(b_row, c_row):
        if b != c:
            x, y = float(b), float(c)
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return worst


def difference(base, change) -> str | None:
    """None if the two runs agree, else what differs first."""
    if isinstance(base, str) or isinstance(change, str):
        return f"baseline {base if isinstance(base, str) else 'ok'}; change {change if isinstance(change, str) else 'ok'}"
    (b_rows, b_comments, b_layers), (c_rows, c_comments, c_layers) = base, change
    if len(b_rows) != len(c_rows):
        return f"{len(b_rows)} log rows against {len(c_rows)}"
    for b, c in zip(b_rows, c_rows):
        if b != c:
            return f"step {b[0]}, largest relative difference {largest_relative_difference(b, c):.3g}: log row {b} against {c}"
    if b_comments != c_comments:
        return f"log comments {b_comments} against {c_comments}"
    if b_layers != c_layers:
        return "checkpoint layers differ"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", required=True, help="git revision to compare the working tree against")
    args = parser.parse_args(argv)

    sha = paired_bench.git("rev-parse", "--verify", f"{args.baseline}^{{commit}}")
    cfgs = configs()
    baseline = paired_bench.export_revision(sha)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            outs = {"baseline": os.path.join(tmp, "baseline"), "change": os.path.join(tmp, "change")}
            for side, tree in (("baseline", baseline), ("change", ROOT)):
                print(f"training {len(cfgs)} configs in the {side} tree", flush=True)
                run_tree(tree, outs[side], cfgs)
            differ = 0
            for name in cfgs:
                diff = difference(*(read_run(os.path.join(outs[side], name)) for side in ("baseline", "change")))
                differ += diff is not None
                print(f"{name:32s} {'identical' if diff is None else 'DIFFERS: ' + diff}")
    finally:
        shutil.rmtree(baseline, ignore_errors=True)
        try:
            os.rmdir(paired_bench.TMP_PARENT)
        except OSError:
            pass
    print(f"{len(cfgs) - differ}/{len(cfgs)} configs bit-identical to {args.baseline} ({sha[:12]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
