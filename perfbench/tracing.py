"""Span recording around the package's layer functions, and span analysis.

The traced run rebinds each function listed in :data:`WRAP_SITES` with a
wrapper that records one span per call: name, start, end, parent span and
run id.  The package binds many of these functions by name
(``from .taylor import taylor_forward``), so a function is rebound in
every module listed for it, not only in the one that defines it.
:func:`install` fails loudly when a listed binding is missing, or when a
module of the package still holds an original function after rebinding,
so a refactor cannot silently take a layer out of the trace.

Spans stay in memory until :meth:`Tracer.write`; :func:`summarize` turns a
written span file into the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "pinnopt"


def _taylor_state_mb(args, result):
    # computed from array sizes: N * S * sum(h) * 8 bytes over all states
    states, _ = result
    return {"mb": sum(s.nbytes for s in states) / 1e6}


def _rows_mb(args, result):
    # computed from array sizes: N * D * 8 bytes
    return {"mb": result.nbytes / 1e6}


def _eig_n3(args, result):
    # computed from the matrix size, not a measured operation count
    return {"n3": len(result.eigenvalues) ** 3}


def _line_search_alpha(args, result):
    return {"alpha": result[0]}


@dataclass(frozen=True)
class WrapSite:
    """One function to trace: span name, defining module, and re-binders.

    ``also_bound_in`` lists the other modules (``""`` is the package
    namespace itself) that import the function by name.  ``annotate``
    maps the call's arguments and result to numbers stored on the span.
    """

    span: str
    module: str
    attr: str
    also_bound_in: tuple = ()
    annotate: Callable | None = None


WRAP_SITES = (
    WrapSite("taylor.forward", "taylor", "taylor_forward", ("", "pde", "curvature"), _taylor_state_mb),
    WrapSite("taylor.backward", "taylor", "taylor_backward", ("", "curvature", "optim")),
    WrapSite("network.forward_batch", "network", "forward_batch", ("",)),
    WrapSite("network.backward_batch", "network", "backward_batch"),
    WrapSite("pde.sample_batch", "pde", "sample_batch", ("",)),
    WrapSite("pde.losses", "pde", "interior_loss_and_residuals"),
    WrapSite("pde.losses", "pde", "boundary_loss"),
    WrapSite("curvature.factor_update", "curvature", "interior_factor_update"),
    WrapSite("curvature.factor_update", "curvature", "boundary_factor_update"),
    WrapSite("curvature.jacobian_rows", "curvature", "_interior_jacobian_rows", (), _rows_mb),
    WrapSite("curvature.jacobian_rows", "curvature", "_boundary_jacobian_rows", (), _rows_mb),
    WrapSite("curvature.gramian_vec", "curvature", "gramian_vec_from_rows"),
    WrapSite("curvature.precondition", "curvature", "precondition_gradient", ("",)),
    WrapSite("linalg.kron_sum_solve", "linalg", "kron_sum_solve", ("", "curvature")),
    WrapSite("linalg.sym_eig", "linalg", "sym_eig", ("",), _eig_n3),
    WrapSite("optim.step", "optim", "optimizer_step", ("", "harness")),
    WrapSite("optim.line_search", "optim", "line_search", (), _line_search_alpha),
    WrapSite("optim.loss_eval", "optim", "evaluate_losses"),
    WrapSite("harness.run_training", "harness", "run_training", ("",)),
    WrapSite("harness.eval_l2", "harness", "eval_l2", ("",)),
    WrapSite("harness.io", "harness", "save_checkpoint"),
    WrapSite("harness.io", "harness", "_CsvWriter.__init__"),
    WrapSite("harness.io", "harness", "_CsvWriter.row"),
    WrapSite("harness.io", "harness", "_CsvWriter.comment"),
    WrapSite("harness.io", "harness", "_CsvWriter.close"),
)

ROOT_SPAN = "harness.run_training"
STEP_SPAN = "optim.step"


class TraceSetupError(RuntimeError):
    """A registered wrap site does not match the package."""


class Tracer:
    """In-memory span store for one traced run.

    A span is ``[id, parent_id, name, start_s, end_s, attrs]``; the run id
    is stored once for the whole file.  Calls are synchronous on one
    thread, so the open spans form a stack and a span's parent is the one
    on top of it when the span opens.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, fn, site: WrapSite):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, site.span, clock(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if site.annotate is not None:
                span[5] = site.annotate(args, result)
            return result

        return traced

    def write(self, path: str, wall_s: float):
        """Write the spans as JSON: one header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "wall_s": wall_s}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Rebind every registered function, in every module that binds it."""
    originals = {}
    for site in WRAP_SITES:
        defining = importlib.import_module(f"{PACKAGE}.{site.module}")
        try:
            owner, name = _resolve(defining, site.attr)
            fn = getattr(owner, name)
        except AttributeError:
            raise TraceSetupError(f"{PACKAGE}.{site.module}.{site.attr} does not exist") from None
        originals[id(fn)] = f"{site.module}.{site.attr}"
        wrapped = tracer.wrap(fn, site)
        setattr(owner, name, wrapped)
        for other in site.also_bound_in:
            mod_name = f"{PACKAGE}.{other}" if other else PACKAGE
            module = importlib.import_module(mod_name)
            if getattr(module, name, None) is not fn:
                raise TraceSetupError(f"{mod_name} no longer binds {site.module}.{site.attr}")
            setattr(module, name, wrapped)

    # an import site missing from the registry would leave calls untraced
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(module).items():
            if id(value) in originals:
                raise TraceSetupError(
                    f"{mod_name}.{attr} binds {originals[id(value)]} but is not a registered wrap site"
                )


# ---------------------------------------------------------------------------
# analysis

def read_spans(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return header, spans


def summarize(spans: list, wall_s: float) -> dict:
    """Per-layer table of one traced run.

    ``*_per_step`` figures count only spans that run inside an optimizer
    step, divided by the number of steps; ``calls``, ``per_call`` and
    ``self_ms`` figures count the whole run.  Self time is a span's
    duration minus the time its direct children cover.
    """
    by_id = {s[0]: s for s in spans}
    self_s = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] >= 0:
            self_s[s[1]] -= s[4] - s[3]

    in_step = {}
    for s in spans:  # parents precede children, so one forward pass suffices
        parent = by_id.get(s[1])
        in_step[s[0]] = parent is not None and (parent[2] == STEP_SPAN or in_step[parent[0]])

    calls, self_ms, step_calls, step_self_ms, step_attr = {}, {}, {}, {}, {}
    for s in spans:
        name, ms = s[2], 1e3 * self_s[s[0]]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + ms
        if in_step[s[0]] or name == STEP_SPAN:
            step_calls[name] = step_calls.get(name, 0) + 1
            step_self_ms[name] = step_self_ms.get(name, 0.0) + ms
            for key, value in (s[5] or {}).items():
                step_attr[(name, key)] = step_attr.get((name, key), 0.0) + value

    steps = step_calls.get(STEP_SPAN, 0)
    if steps == 0:
        raise ValueError("the traced run made no optimizer step")

    def per_step_ms(name):
        return step_self_ms.get(name, 0.0) / steps

    def per_step_calls(name):
        return step_calls.get(name, 0) / steps

    def per_call_ms(name):
        return self_ms[name] / calls[name] if calls.get(name) else 0.0

    loss_evals = sum(
        1
        for s in spans
        if s[2] == "optim.loss_eval" and s[1] >= 0 and by_id[s[1]][2] == "optim.line_search"
    )
    alphas = [s[5]["alpha"] for s in spans if s[2] == "optim.line_search"]

    table = {
        "taylor.forward.calls_per_step": per_step_calls("taylor.forward"),
        "taylor.forward.self_ms_per_step": per_step_ms("taylor.forward"),
        "taylor.backward.self_ms_per_step": per_step_ms("taylor.backward"),
        "taylor.state_mb_per_step": step_attr.get(("taylor.forward", "mb"), 0.0) / steps,
        "network.forward_batch.self_ms_per_step": per_step_ms("network.forward_batch"),
        "network.backward_batch.self_ms_per_step": per_step_ms("network.backward_batch"),
        "pde.sample_batch.calls": calls.get("pde.sample_batch", 0),
        "pde.sample_batch.self_ms_per_call": per_call_ms("pde.sample_batch"),
        "pde.losses.self_ms_per_step": per_step_ms("pde.losses"),
        "curvature.factor_update.self_ms_per_step": per_step_ms("curvature.factor_update"),
        "curvature.jacobian_rows.self_ms_per_step": per_step_ms("curvature.jacobian_rows"),
        "curvature.jacobian_rows.mb_per_step": step_attr.get(("curvature.jacobian_rows", "mb"), 0.0) / steps,
        "curvature.gramian_vec.calls_per_step": per_step_calls("curvature.gramian_vec"),
        "curvature.gramian_vec.self_ms_per_step": per_step_ms("curvature.gramian_vec"),
        "curvature.precondition.self_ms_per_step": per_step_ms("curvature.precondition"),
        "linalg.kron_sum_solve.calls_per_step": per_step_calls("linalg.kron_sum_solve"),
        "linalg.kron_sum_solve.self_ms_per_step": per_step_ms("linalg.kron_sum_solve"),
        "linalg.sym_eig.calls_per_step": per_step_calls("linalg.sym_eig"),
        "linalg.sym_eig.n3_per_step": step_attr.get(("linalg.sym_eig", "n3"), 0.0) / steps,
        "optim.step.self_ms_per_step": per_step_ms(STEP_SPAN),
        "optim.line_search.loss_evals_per_step": loss_evals / steps,
        "optim.line_search.useful_ratio": steps / loss_evals if loss_evals else 0.0,
        "optim.line_search.alpha_log2_p50": statistics.median(math.log2(a) for a in alphas) if alphas else 0.0,
        "optim.line_search.self_ms_per_step": per_step_ms("optim.line_search"),
        "harness.eval_l2.calls": calls.get("harness.eval_l2", 0),
        "harness.eval_l2.self_ms_per_call": per_call_ms("harness.eval_l2"),
        "harness.io.self_ms": self_ms.get("harness.io", 0.0),
        "harness.loop.self_ms_per_step": self_ms.get(ROOT_SPAN, 0.0) / steps,
        "trace.coverage": sum(self_s.values()) / wall_s,
    }
    return {"steps": steps, "calls": calls, "table": table}
