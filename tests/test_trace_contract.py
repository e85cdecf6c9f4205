"""The traced benchmark run's contract with the package, checked in tier 1.

``perfbench/tracing.py`` rebinds the package's layer functions by name, and
each workload in ``perfbench/workloads.py`` lists the spans a traced run
must and must not record.  A refactor that renames, stops binding or stops
calling a wrapped function would otherwise fail only under
``python3 perfbench/run.py --trace 1``.  The traced run happens in a child
process, because installing the wrappers rebinds module attributes for
the rest of the process.

The same run guards the size of what kfac_star builds per step: its
quadratic model needs only the (N, k) products J V, so the
``curvature.jacobian_rows`` spans must stay far below the N x D rows
(40 MB per step on fokker10d).

It also guards the tracer's premise that every wrapped call runs on the
calling thread: the tracer keeps one stack of open spans, so a wrapped
function entered from a split pass's worker thread would record spans
that stick out of their parent or overlap a sibling.  Every span must lie
inside its parent's interval, no two children of one parent may overlap,
and no wrapped function may be entered off the main thread.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import functools, json, os, sys, threading
import tracing
from workloads import WORKLOADS
from pinnopt import harness

off_thread = []


class ThreadCheckingTracer(tracing.Tracer):
    # records every wrapped call made on a thread other than the main one
    def wrap(self, fn, site):
        traced = super().wrap(fn, site)

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_thread.append(site.span)
            return traced(*args, **kwargs)

        return checked


tracer = ThreadCheckingTracer("trace-contract")
tracing.install(tracer)
by_id = {}


def nesting_errors(spans):
    # spans outside their parent's interval, and overlapping children of one parent
    errors, children = [], {}
    for span in spans:
        parent = by_id.get(span[1])
        if parent is None:
            continue
        if span[3] < parent[3] or span[4] > parent[4]:
            errors.append(f"{span[2]} #{span[0]} outside its parent {parent[2]} #{parent[0]}")
        children.setdefault(parent[0], []).append(span)
    for kids in children.values():
        kids.sort(key=lambda span: span[3])
        for a, b in zip(kids, kids[1:]):
            if b[3] < a[4]:
                errors.append(f"{a[2]} #{a[0]} overlaps its sibling {b[2]} #{b[0]}")
    return errors


report = {}
for name, workload in WORKLOADS.items():
    first = len(tracer.spans)
    config = dict(workload["config"], max_steps=2, output_dir=os.path.join(sys.argv[1], name))
    off_thread.clear()
    log = harness.run_training(harness.RunConfig.from_dict(config))
    spans = tracer.spans[first:]
    by_id.update((span[0], span) for span in spans)
    steps = sum(span[2] == tracing.STEP_SPAN for span in spans)
    report[name] = {
        "diverged": log.diverged,
        "recorded": sorted({span[2] for span in spans}),
        "rows_mb_per_step": sum(
            span[5]["mb"] for span in spans if span[2] == "curvature.jacobian_rows"
        ) / steps,
        "nesting_errors": nesting_errors(spans)[:5],
        "off_thread": sorted(set(off_thread)),
        "expect_calls": list(workload["expect_calls"]),
        "expect_no_calls": list(workload["expect_no_calls"]),
    }
print(json.dumps(report))
"""


def test_traced_workloads_record_their_spans(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    # tracing.install raises TraceSetupError when a wrap site no longer matches
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report
    for name, run in report.items():
        assert not run["diverged"], name
        assert run["nesting_errors"] == [], name
        assert run["off_thread"] == [], name
        recorded = set(run["recorded"])
        assert sorted(set(run["expect_calls"]) - recorded) == [], name
        assert sorted(set(run["expect_no_calls"]) & recorded) == [], name
        if "curvature.jacobian_rows" in run["expect_calls"]:
            assert run["rows_mb_per_step"] < 1.0, name
