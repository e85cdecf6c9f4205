#!/usr/bin/env python3
"""Training benchmark for pinnopt: end-to-end metrics, or a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload poisson2d-kfac --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40        # every workload

Every training run goes through ``pinnopt.harness.run_training`` in a fresh
child process (``child.py``), the path ``pinnopt train`` takes.  The load
is a closed loop with one client: one process, one optimizer step at a
time, each waiting for the previous one, BLAS and OpenMP capped at
``BLAS_THREADS`` threads.  ``--seed`` becomes the RunConfig seed; the
program sees nothing else of the benchmark.

``--trace 0`` runs the workload once at its full step budget, then four
shorter repeats of the same config that fill the rest of ``--seconds``,
each after two one-step runs that only add process starts to ``setup_s``.
It reports the end-to-end metrics and checks every run: all losses and
errors finite, no divergence, every planned step completed, the repeats'
log rows bit-identical to the full run's (the library's reproducibility
promise), and the full run ending at or below the workload's
``final_l2_max`` where it sets one.

``--trace 1`` runs the same config untraced and traced for the same number
of steps, checks that their logs agree bit for bit, and reports the
per-layer table from the spans (see ``tracing.py``); ``trace.overhead`` is
traced over untraced steps per second.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (planned optimizer steps, and those
not completed with a finite loss or belonging to a run that failed a
check) and ``metrics``.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP_PARENT = os.path.join(ROOT, ".perfbench-tmp")

# one thread: the benchmark is a single client, and with 64-wide layers two
# BLAS threads measured no faster per step than one
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
REPEATS = 4
# one-step runs before each repeat; they only add process starts to setup_s
PROBES_PER_REPEAT = 2
CHILD_TIMEOUT_S = 170
# log row layout: step, wall_time_s, loss_interior, loss_boundary, loss_total,
# l2_rel_error, alpha, mu
LOSS_TOTAL, L2 = 4, 5
COMPARED_COLUMNS = (0, 2, 3, 4, 5, 6, 7)  # every column except wall_time_s

# (name, unit); the JSON result of a --trace 0 run carries exactly these
END_TO_END = (
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# printed by every --trace 0 run but not bounded: each is fixed by the seed,
# and its spread across seeds is wider than any regression bound
TRAJECTORY = (
    ("time_to_target_s", "s"),
    ("steps_to_target", "count"),
    ("final_l2_rel_error", "1"),
)
UNITS = {
    **dict(END_TO_END),
    **dict(TRAJECTORY),
    "failed_ratio": "ratio",
    "taylor.state_mb_per_step": "MB_computed",
    "curvature.jacobian_rows.mb_per_step": "MB_computed",
    "linalg.sym_eig.n3_per_step": "n3_computed",
    "optim.line_search.alpha_log2_p50": "log2",
    "optim.line_search.useful_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms" if "_ms" in name else "count"


class Episode:
    """One child-process training run and what it reported."""

    def __init__(self, config: dict, result: dict | None, error: str | None):
        self.config = config
        self.result = result
        self.error = error

    @property
    def planned(self) -> int:
        """Steps the run was meant to take; a wall-capped run plans what it reached."""
        if self.config["max_wall_seconds"] > 0 and self.result is not None:
            return self.steps
        return self.config["max_steps"]

    @property
    def rows(self) -> list:
        return self.result["rows"]

    @property
    def steps(self) -> int:
        return int(self.rows[-1][0])

    @property
    def loop_s(self) -> float:
        return self.rows[-1][1]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_episode(tmp: str, index: int, config: dict, trace: bool, run_id: str) -> Episode:
    ep_dir = os.path.join(tmp, f"run{index}")
    os.makedirs(ep_dir)
    config = dict(config, output_dir=os.path.join(ep_dir, "out"))
    spec = {
        "config": config,
        "trace": trace,
        "run_id": run_id,
        "result": os.path.join(ep_dir, "result.json"),
        "spans": os.path.join(ep_dir, "spans.jsonl"),
    }
    spec_path = os.path.join(ep_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    spawn = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path, repr(spawn)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Episode(config, None, f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        return Episode(config, None, f"exit code {proc.returncode}\n{proc.stderr[-3000:]}")
    with open(spec["result"], "r", encoding="utf-8") as fh:
        result = json.load(fh)
    if trace:
        result["spans_path"] = spec["spans"]
    return Episode(config, result, None)


def check_episode(ep: Episode, reference: Episode | None) -> list:
    """Output checks of one run; returns the list of failures."""
    if ep.error:
        return [ep.error]
    problems = []
    res = ep.result
    if res["diverged"]:
        problems.append("training diverged")
    if res["finite_steps"] != ep.planned:
        problems.append(f"{res['finite_steps']} of {ep.planned} steps completed with a finite loss")
    for row in ep.rows:
        if not (math.isfinite(row[LOSS_TOTAL]) and math.isfinite(row[L2])):
            problems.append(f"non-finite loss_total or l2_rel_error at step {int(row[0])}")
            break
    if reference is not None and reference.result is not None:
        ref = {int(r[0]): r for r in reference.rows}
        common = [r for r in ep.rows if int(r[0]) in ref]
        if len(common) < 2:
            problems.append("no log rows after step 0 to compare with the reference run")
        for row in common:
            other = ref[int(row[0])]
            if any(row[i] != other[i] for i in COMPARED_COLUMNS):
                problems.append(f"log row at step {int(row[0])} differs from the reference run")
                break
    return problems


def first_at_target(ep: Episode, target: float):
    for row in ep.rows:
        if row[L2] <= target:
            return row
    return None


def measure(name: str, workload: dict, seed: int, seconds: float, tmp: str) -> dict:
    """The --trace 0 run: full budget, then repeats filling ``seconds``."""
    start = time.perf_counter()
    base = dict(workload["config"], seed=seed)
    budget, every = base["max_steps"], base["eval_every"]

    full = run_episode(tmp, 0, base, False, f"{name}-{seed}-0")
    episodes, probes = [full], set()
    target = workload["target_l2"]
    failures = {0: check_episode(full, None)}
    if not failures[0]:
        bound = workload["final_l2_max"]
        if bound is not None and full.rows[-1][L2] > bound:
            failures[0].append(f"final l2_rel_error {full.rows[-1][L2]:.4g} above {bound:g}")
    if full.error is None:
        wall = time.perf_counter() - start
        per_step = full.loop_s / max(full.steps, 1)
        overhead = max(wall - full.loop_s, 0.0)
        left = seconds - wall - REPEATS * PROBES_PER_REPEAT * (overhead + per_step)
        steps = int((left / REPEATS - overhead) / per_step) // every * every
        steps = min(budget, max(every, steps))
        for _ in range(REPEATS):
            for _ in range(PROBES_PER_REPEAT):
                k = len(episodes)
                probe = run_episode(tmp, k, dict(base, max_steps=1), False, f"{name}-{seed}-{k}")
                episodes.append(probe)
                probes.add(k)
                failures[k] = check_episode(probe, None)
            k = len(episodes)
            ep = run_episode(tmp, k, dict(base, max_steps=steps), False, f"{name}-{seed}-{k}")
            episodes.append(ep)
            failures[k] = check_episode(ep, full)

    attempted = sum(ep.planned for ep in episodes)
    failed = 0
    for k, ep in enumerate(episodes):
        if failures[k]:
            failed += ep.planned
        else:
            failed += ep.planned - ep.result["finite_steps"]
    setups = [ep.result["setup_s"] for k, ep in enumerate(episodes) if not failures[k]]
    ok = [ep for k, ep in enumerate(episodes) if not failures[k] and k not in probes]

    metrics, notes, missing = {}, {}, {}
    if ok:
        step_ms = [1e3 * s for ep in ok for s in ep.result["step_s"]]
        metrics["setup_s"] = statistics.median(setups)
        notes["setup_s"] = f"median of {len(setups)} process starts"
        metrics["step_ms_p50"] = statistics.median(step_ms)
        notes["step_ms_p50"] = f"{len(step_ms)} timed steps"
        metrics["step_ms_p90"] = statistics.quantiles(step_ms, n=10)[-1]
        notes["step_ms_p90"] = f"{len(step_ms)} timed steps"
        metrics["steps_per_s"] = sum(ep.steps for ep in ok) / sum(ep.loop_s for ep in ok)
        notes["steps_per_s"] = f"{sum(ep.steps for ep in ok)} steps over {len(ok)} runs"
        rss = [ep.result["peak_rss_mb"] for ep in ok]
        metrics["peak_rss_mb"] = statistics.median(rss)
        notes["peak_rss_mb"] = f"median of {len(rss)} processes"
    if not failures[0]:
        hits = [row for row in (first_at_target(ep, target) for ep in ok) if row]
        hit = first_at_target(full, target)
        if hits:
            metrics["time_to_target_s"] = statistics.median(row[1] for row in hits)
            notes["time_to_target_s"] = f"median of {len(hits)} runs reaching l2 <= {target:g}"
        else:
            missing["time_to_target_s"] = f"no run reached l2 <= {target:g}"
        if hit:
            metrics["steps_to_target"] = int(hit[0])
            notes["steps_to_target"] = f"first logged row, eval every {every} steps"
        else:
            missing["steps_to_target"] = f"l2 > {target:g} at every logged row"
        metrics["final_l2_rel_error"] = full.rows[-1][L2]
        notes["final_l2_rel_error"] = f"at the {budget}-step budget"
    metrics["failed_ratio"] = failed / attempted
    notes["failed_ratio"] = f"{failed} of {attempted} planned steps"

    problems = [f"run {k}: {msg}" for k, msgs in failures.items() for msg in msgs]
    env = {"numpy": full.result["numpy"], "blas": full.result["blas"]} if full.result else {}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "missing": missing,
        "problems": problems,
        "env": env,
    }


def traced(name: str, workload: dict, seed: int, seconds: float, tmp: str) -> dict:
    """The --trace 1 run: untraced then traced, same steps; per-layer table."""
    base = dict(workload["config"], seed=seed)
    plain = run_episode(
        tmp, 0, dict(base, max_wall_seconds=0.45 * seconds), False, f"{name}-{seed}-untraced"
    )
    problems = [f"untraced run: {m}" for m in check_episode(plain, None)]
    episodes = [plain]
    metrics, notes, env = {}, {}, {}
    if not problems:
        env = {"numpy": plain.result["numpy"], "blas": plain.result["blas"]}
        spanned = run_episode(
            tmp, 1, dict(base, max_steps=plain.steps), True, f"{name}-{seed}-traced"
        )
        episodes.append(spanned)
        problems += [f"traced run: {m}" for m in check_episode(spanned, plain)]
        if not problems:
            header, spans = tracing.read_spans(spanned.result["spans_path"])
            summary = tracing.summarize(spans, header["wall_s"])
            for span in workload["expect_calls"]:
                if summary["calls"].get(span, 0) == 0:
                    problems.append(f"traced run recorded no {span} call; the workload needs it")
            for span in workload["expect_no_calls"]:
                if summary["calls"].get(span, 0) != 0:
                    problems.append(f"traced run recorded {span} calls; the workload makes none")
            metrics = dict(summary["table"])
            metrics["trace.overhead"] = (spanned.steps / spanned.loop_s) / (plain.steps / plain.loop_s)
            notes = {key: f"{summary['steps']} traced steps" for key in metrics}

    attempted = sum(ep.planned for ep in episodes)
    failed = attempted if problems else 0
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "problems": problems,
        "env": env,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pinnopt", "__init__.py")):
        print(f"error: no pinnopt package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # SeedSequence takes only non-negative entropy; seeds in [0, 2**64) are kept
    seed = args.seed % 2**64
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    reports = {}
    try:
        for name in names:
            run = traced if args.trace else measure
            wl_tmp = os.path.join(tmp, name)
            os.makedirs(wl_tmp)
            reports[name] = run(name, WORKLOADS[name], seed, args.seconds, wl_tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass

    first_env = next((r["env"] for r in reports.values() if r["env"]), {})
    print("environment: " + json.dumps(dict(env, **first_env), sort_keys=True))
    for name, rep in reports.items():
        print(f"workload {name} seed {args.seed} {'traced' if args.trace else 'untraced'}")
        for key, value in rep["metrics"].items():
            print(f"  {key:42s} {value:14.6g} {unit_of(key):12s} {rep['notes'].get(key, '')}")
        for key, why in rep.get("missing", {}).items():
            print(f"  {key:42s} {'missing':>14s} {unit_of(key):12s} {why}")
        for msg in rep["problems"]:
            print(f"  CHECK FAILED: {msg}")
            print(f"{name}: check failed: {msg}", file=sys.stderr)

    correct = all(r["correct"] for r in reports.values())
    out_metrics = {}
    for name, rep in reports.items():
        prefix = "" if len(reports) == 1 else f"{name}."
        keys = rep["metrics"] if args.trace else [k for k, _ in END_TO_END if k in rep["metrics"]]
        for key in keys:
            out_metrics[prefix + key] = {"value": rep["metrics"][key], "unit": unit_of(key)}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in reports.values()),
                "failed": sum(r["failed"] for r in reports.values()),
                "metrics": out_metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
