"""The traced benchmark run's contract with the package, checked in tier 1.

``perfbench/tracing.py`` rebinds the package's layer functions by name, and
each workload in ``perfbench/workloads.py`` lists the spans a traced run
must and must not record.  A refactor that renames, stops binding or stops
calling a wrapped function would otherwise fail only under
``python3 perfbench/run.py --trace 1``.  The traced run happens in a child
process, because installing the wrappers rebinds module attributes for
the rest of the process.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import json, os, sys
import tracing
from workloads import WORKLOADS
from pinnopt import harness

tracer = tracing.Tracer("trace-contract")
tracing.install(tracer)
report = {}
for name, workload in WORKLOADS.items():
    first = len(tracer.spans)
    config = dict(workload["config"], max_steps=2, output_dir=os.path.join(sys.argv[1], name))
    log = harness.run_training(harness.RunConfig.from_dict(config))
    report[name] = {
        "diverged": log.diverged,
        "recorded": sorted({span[2] for span in tracer.spans[first:]}),
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
        recorded = set(run["recorded"])
        assert sorted(set(run["expect_calls"]) - recorded) == [], name
        assert sorted(set(run["expect_no_calls"]) & recorded) == [], name
