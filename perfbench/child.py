"""One training run in a fresh process, as ``pinnopt train`` would make it.

Usage: ``python3 perfbench/child.py SPEC.json SPAWN_TIME``

``SPEC.json`` holds ``config`` (the RunConfig dict), ``trace`` (bool),
``run_id``, and the paths ``result`` and ``spans`` to write.
``SPAWN_TIME`` is the parent's ``time.time()`` just before it started this
process, so set-up time includes interpreter start and every import.

The only instrumentation of an untraced run is one timer around the
``optimizer_step`` name bound in ``pinnopt.harness``; a traced run also
installs the span wrappers of :mod:`tracing` first.
"""

import json
import resource
import sys
import time


def main(spec_path: str, spawn_time: float) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    import numpy as np
    from pinnopt import harness

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)

    first_step_at = []
    step_s = []
    finite_steps = 0
    inner = harness.optimizer_step

    def timed_step(state, batch, problem):
        nonlocal finite_steps
        if not first_step_at:
            first_step_at.append(time.time())
        t0 = time.perf_counter()
        info = inner(state, batch, problem)
        step_s.append(time.perf_counter() - t0)
        finite_steps += bool(np.isfinite(info.loss_total))
        return info

    harness.optimizer_step = timed_step
    log = harness.run_training(harness.RunConfig.from_dict(spec["config"]))
    wall_s = time.time() - spawn_time

    if tracer is not None:
        tracer.write(spec["spans"], wall_s)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": first_step_at[0] - spawn_time if first_step_at else None,
        "step_s": step_s,
        "finite_steps": finite_steps,
        "rows": log.rows,
        "diverged": log.diverged,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
