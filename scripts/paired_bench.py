#!/usr/bin/env python3
"""Paired benchmark: a baseline git revision against the working tree.

Usage (from the repository root)::

    python3 scripts/paired_bench.py --baseline HEAD --seeds 1 2 3 --held-out 1001 --out BENCH.json

The committed files of ``--baseline`` are exported with ``git archive``
into ``.paired-tmp/<sha>/``.  Each tree then runs its own, unchanged
``perfbench/run.py --workload all --seed S --seconds T`` as a child
process, one run at a time, with T the ``run_seconds`` of
``BENCHMARK.json``.  A pair is one baseline run and one working-tree run at
the same seed; the side that runs first alternates from pair to pair
(AB, BA, AB, ...), so slow drift of the host hits both sides alike.

From the JSON object on the last line of each run, the script reports per
workload and end-to-end metric of ``BENCHMARK.json``: each side's median
and quartiles over the pairs, the change/baseline ratio of the medians,
and the number of pairs the change won (ties count for neither side).  A
gain is claimed only when there are at least 10 pairs, the change wins at
least 9 in 10 of them and its median beats the baseline's by more than
the baseline's interquartile range; a regression is a median worse than the baseline's by more than
the metric's bound.  The held-out seed is one more pair, run after the
others, on a seed that was not used while the change was written; for it
only the two values, their ratio and which side won are reported, since
one pair cannot carry the win-share and IQR rules.

The working tree is identified by ``HEAD``, whether it differs from it,
and the git tree object of its tracked files as they are on disk: equal
to ``git rev-parse <commit>^{tree}`` exactly when the measured files are
those of that commit.  Untracked files are listed by name.

Everything is printed and, with ``--out``, written as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TMP_PARENT = os.path.join(ROOT, ".paired-tmp")
SIDES = ("baseline", "change")
WIN_SHARE = 0.9
MIN_PAIRS = 10


def git(*args, env=None) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True, env=env
    ).stdout.strip()


def working_tree() -> dict:
    """``HEAD``, whether the tracked files differ from it, their tree object, and untracked files."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "--update", env=env)
        tree = git("write-tree", env=env)
    head = git("rev-parse", "HEAD")
    return {
        "head": head,
        "dirty": tree != git("rev-parse", "HEAD^{tree}"),
        "tree": tree,
        "untracked": git("ls-files", "--others", "--exclude-standard").splitlines(),
    }


def export_revision(sha: str) -> str:
    """The committed files of ``sha`` in a fresh directory under ``.paired-tmp/``."""
    dest = os.path.join(TMP_PARENT, sha)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return dest


def run_benchmark(tree: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; returns its last-line JSON plus the environment line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}", "metrics": {}}
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    env_line = next((l for l in lines if l.startswith("environment: ")), None)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "environment": json.loads(env_line[len("environment: "):]) if env_line else None,
        "wall_s": time.perf_counter() - start,
    }


def run_pair(trees: dict, index: int, seed: int, seconds: float) -> dict:
    order = SIDES if index % 2 == 0 else SIDES[::-1]
    pair = {"seed": seed, "order": list(order)}
    for side in order:
        pair[side] = run_benchmark(trees[side], seed, seconds)
        p50 = {k.split(".", 1)[0]: round(v, 2) for k, v in pair[side]["metrics"].items()
               if k.endswith(".step_ms_p50")}
        print(f"  seed {seed} {side:8s} correct={pair[side]['correct']} step_ms_p50={p50}", flush=True)
    return pair


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def paired_values(pairs: list, spec: dict):
    """``(key, metric spec, [(baseline, change), ...])`` per end-to-end workload metric."""
    keys = sorted({k for p in pairs for side in SIDES for k in p[side]["metrics"]})
    for key in keys:
        metric = key.split(".", 1)[1]
        if metric not in spec:
            continue
        both = [(p["baseline"]["metrics"][key], p["change"]["metrics"][key]) for p in pairs
                if key in p["baseline"]["metrics"] and key in p["change"]["metrics"]]
        if both:
            yield key, spec[metric], both


def summarize(pairs: list, spec: dict) -> dict:
    """Per workload and metric: medians, quartiles, ratio, wins, and the gain/regression rules."""
    out = {}
    for key, m, both in paired_values(pairs, spec):
        direction, bound = m["better"], m["bound"]
        base = [b for b, _ in both]
        change = [c for _, c in both]
        bq, cq = quartiles(base), quartiles(change)
        wins = sum(better(c, b, direction) for b, c in both)
        gap = cq[1] - bq[1]
        worse_by = gap / bq[1] if direction == "lower" else -gap / bq[1]
        out[key] = {
            "unit": m["unit"],
            "better": direction,
            "pairs": len(both),
            "baseline": {"median": bq[1], "q1": bq[0], "q3": bq[2], "iqr": bq[2] - bq[0]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2], "iqr": cq[2] - cq[0]},
            "ratio": cq[1] / bq[1] if bq[1] else None,
            "wins": wins,
            "gain": len(both) >= MIN_PAIRS and wins >= WIN_SHARE * len(both)
            and better(cq[1], bq[1], direction)
            and abs(gap) > bq[2] - bq[0],
            "regression": worse_by > bound,
        }
    return out


def held_out_summary(pair: dict, spec: dict) -> dict:
    """Per workload and metric of one pair: both values, their ratio and whether the change won."""
    out = {}
    for key, m, [(b, c)] in paired_values([pair], spec):
        out[key] = {"unit": m["unit"], "better": m["better"], "baseline": b, "change": c,
                    "ratio": c / b if b else None, "change_won": better(c, b, m["better"])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--held-out", type=int, help="seed of one more pair, reported on its own")
    parser.add_argument("--out", help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    sha = git("rev-parse", "--verify", f"{args.baseline}^{{commit}}")
    report = {
        "command": "python3 scripts/paired_bench.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "baseline": {"rev": args.baseline, "sha": sha},
        "change": working_tree(),
        "seconds": seconds,
        "rules": f"gain: at least {MIN_PAIRS} pairs, wins >= {WIN_SHARE:g} of pairs "
        "and |median gap| > baseline IQR; "
        "regression: median worse than the baseline's by more than the BENCHMARK.json bound",
    }
    trees = {"baseline": export_revision(sha), "change": ROOT}
    try:
        pairs = []
        for i, seed in enumerate(args.seeds):
            print(f"pair {i + 1}/{len(args.seeds)}", flush=True)
            pairs.append(run_pair(trees, i, seed, seconds))
        report["pairs"] = pairs
        report["summary"] = summarize(pairs, spec)
        if args.held_out is not None:
            print("held-out pair", flush=True)
            held = run_pair(trees, len(pairs), args.held_out, seconds)
            report["held_out"] = {"pair": held, "summary": held_out_summary(held, spec)}
    finally:
        shutil.rmtree(trees["baseline"], ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    report["environment"] = next(
        (p[s]["environment"] for p in report["pairs"] for s in SIDES if p[s].get("environment")), None
    )

    print(f"{'workload.metric':44s} {'baseline p50 [q1, q3]':>28s} {'change p50 [q1, q3]':>28s} "
          f"{'ratio':>7s} {'wins':>6s}  verdict")
    for key, s in report["summary"].items():
        b, c = s["baseline"], s["change"]
        verdict = "gain" if s["gain"] else "REGRESSION" if s["regression"] else "-"
        print(f"{key:44s} {b['median']:10.4g} [{b['q1']:.4g}, {b['q3']:.4g}]".ljust(74)
              + f"{c['median']:10.4g} [{c['q1']:.4g}, {c['q3']:.4g}]".ljust(30)
              + f"{s['ratio']:7.3f} {s['wins']:3d}/{s['pairs']:<2d}  {verdict}")
    if "held_out" in report:
        for key, s in report["held_out"]["summary"].items():
            print(f"held-out seed {args.held_out} {key:44s} baseline {s['baseline']:.4g} "
                  f"change {s['change']:.4g} ratio {s['ratio']:.3f} "
                  f"{'change won' if s['change_won'] else 'baseline won or tie'}")
    incorrect = [(p["seed"], side) for p in report["pairs"] for side in SIDES if not p[side]["correct"]]
    if incorrect:
        print(f"runs that failed their checks: {incorrect}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
