"""Span tracing from outside the package, and the per-layer metrics.

A `Tracer` replaces a function or method by a timing wrapper on the name
where its caller looks it up (each demix module imports its callees by
name, so `demix.harness.solve` and `demix.solver.solve` are two separate
entry points into the solver).  Every call records a span: name, start,
end, the span that was open on the same thread when it began, and a small
info dict.  Spans stay in memory until the pass is over; `restore` puts
the original functions back.

A wrap target that no longer exists (a later refactor renamed it) is not
an error: it is listed in `Tracer.missing`, and the metrics built only
from it are reported as absent.
"""

import functools
import importlib
import itertools
import threading
import time

# (owner, attribute, span name).  The owner is a module path, or a module
# path plus a class name.  The order does not matter.
WRAPS = (
    ("demix.cli", "main", "cli.main"),
    ("demix.harness", "run_experiment", "harness.run"),
    ("demix.harness", "_one_trial", "harness.trial"),
    ("demix.harness", "solve", "solver.solve"),
    ("demix.solver", "solve", "solver.solve"),
    ("demix.harness", "make_ensemble", "ensemble.make"),
    ("demix.ensemble", "make_ensemble", "ensemble.make"),
    ("demix.harness", "gram_spectrum", "lifting.spectrum"),
    ("demix.harness", "mu_h", "incoherence.mu_h"),
    # The ADMM loop: one `_blocks_svt` call per iteration, Gram/projector
    # construction and solves, and the forward/adjoint closures.
    ("demix.solver", "_blocks_svt", "solver.svt"),
    ("demix.solver", "_real_operators", "solver.operators"),
    ("demix.solver", "_operators", "solver.operators"),
    ("demix.solver._StackedGram", "__init__", "lifting.factor"),
    ("demix.solver._StackedGram", "solve", "lifting.project"),
    ("demix.lifting.GramSolver", "__init__", "lifting.factor"),
    ("demix.lifting.GramSolver", "solve", "lifting.project"),
    ("demix.solver", "composite_matrix", "lifting.assemble"),
    ("demix.solver", "apply_composite", "lifting.apply"),
    ("demix.solver", "apply_composite_adjoint", "lifting.apply"),
    ("demix.solver", "extract_rank1", "solver.report"),
    ("demix.solver", "align_and_score", "solver.report"),
    # Operator applications inside lifting (CG, spectrum) and from the
    # diagnostics.
    ("demix.lifting", "apply_composite", "lifting.apply"),
    ("demix.lifting", "apply_composite_adjoint", "lifting.apply"),
    ("demix.incoherence", "apply_op", "lifting.apply"),
    ("demix.incoherence", "apply_adjoint", "lifting.apply"),
    ("demix.incoherence", "apply_restricted", "lifting.apply"),
    ("demix.incoherence", "restricted_adjoint", "lifting.apply"),
    ("demix.certificate", "apply_adjoint", "lifting.apply"),
    ("demix.certificate", "apply_restricted", "lifting.apply"),
    ("demix.certificate", "restricted_adjoint", "lifting.apply"),
    ("demix.incoherence", "incoherence_report", "incoherence.report"),
    ("demix.incoherence", "operator_gamma", "incoherence.gamma"),
    ("demix.certificate", "operator_gamma", "incoherence.gamma"),
    ("demix.incoherence", "mu_h", "incoherence.mu_h"),
    ("demix.certificate", "mu_h", "incoherence.mu_h"),
    ("demix.certificate", "golfing_run", "certificate.golfing"),
    ("demix.certificate", "check_dual_certificate", "certificate.check"),
)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "info")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = {}

    @property
    def seconds(self):
        return self.end - self.start


def _resolve(owner):
    """Module path, or module path plus class name -> object, or None."""
    try:
        return importlib.import_module(owner)
    except ImportError:
        module, _, cls = owner.rpartition(".")
        try:
            return getattr(importlib.import_module(module), cls, None)
        except ImportError:
            return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        for owner, attr, name in WRAPS:
            target = _resolve(owner)
            fn = getattr(target, attr, None) if target is not None else None
            if fn is None:
                self.missing.append("%s.%s" % (owner, attr))
                continue
            post = _POST.get(name)
            if post is not None:
                post = functools.partial(post, self)
            self._saved.append((target, attr, target.__dict__.get(attr)))
            setattr(target, attr, self.wrap(fn, name, post))

    def restore(self):
        for target, attr, original in reversed(self._saved):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, post=None, info=None):
        """fn with a span around every call.

        Each span starts with a copy of `info`; post(span, result, args) may
        add to it and replace the result.
        """
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(next(ids), name, stack[-1].id if stack else None)
            if info:
                span.info.update(info)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if post is not None:
                result = post(span, result, args)
            return result

        return traced


def _post_solve(tracer, span, report, args):
    span.info["iters"] = int(report.iterations)
    return report


def _post_operators(tracer, span, result, args):
    """Time the forward/adjoint closures; dense ones carry the bytes they read."""
    ens = args[0]
    mv, rmv = result[0], result[1]
    if len(result) == 3:
        P = result[2]
        nbytes = 0 if P is None else P.nbytes
    else:  # complex closures; the dense matrix is L x sum K_i N_i complex
        limit = getattr(importlib.import_module("demix.solver"), "_DENSE_ENTRY_LIMIT", 0)
        dense = ens.L * ens.sum_kn <= limit
        nbytes = ens.L * ens.sum_kn * 16 if dense else 0

    info = {"bytes": nbytes}
    return (
        tracer.wrap(mv, "lifting.matvec", info=info),
        tracer.wrap(rmv, "lifting.matvec", info=info),
    ) + tuple(result[2:])


_POST = {
    "solver.solve": _post_solve,
    "solver.operators": _post_operators,
}


# ----------------------------------------------------------------------
# Per-layer metrics of one traced pass

# (metric, unit, better) in report order; every name here is a per_layer
# metric of BENCHMARK.json.
LAYER_METRICS = (
    ("solver.iters", "count", "lower"),
    ("solver.svt_s", "s", "lower"),
    ("solver.self_us_per_iter", "us", "lower"),
    ("solver.report_s", "s", "lower"),
    ("lifting.project_calls", "count", "lower"),
    ("lifting.project_s", "s", "lower"),
    ("lifting.factor_calls", "count", "lower"),
    ("lifting.factor_s", "s", "lower"),
    ("lifting.matvec_calls", "count", "lower"),
    ("lifting.matvec_s", "s", "lower"),
    ("lifting.dense_bytes_per_iter", "B/iter-computed", "lower"),
    ("lifting.assemble_calls", "count", "lower"),
    ("lifting.assemble_s", "s", "lower"),
    ("lifting.apply_calls", "count", "lower"),
    ("lifting.apply_s", "s", "lower"),
    ("lifting.spectrum_s", "s", "lower"),
    ("ensemble.make_calls", "count", "lower"),
    ("ensemble.make_s", "s", "lower"),
    ("harness.trials", "count", "higher"),
    ("harness.trial_s", "s", "lower"),
    ("harness.pool_util", "frac", "higher"),
    ("cli.self_s", "s", "lower"),
    ("incoherence.report_s", "s", "lower"),
    ("incoherence.gamma_s", "s", "lower"),
    ("incoherence.mu_h_s", "s", "lower"),
    ("certificate.golfing_s", "s", "lower"),
    ("certificate.check_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


class SpanIndex:
    """The spans of one pass, indexed once for the reductions below."""

    def __init__(self, spans):
        # A parent is created before its children, so it has a smaller id.
        ordered = sorted(spans, key=lambda s: s.id)
        by_id = {s.id: s for s in ordered}
        above = {}  # span id -> names of its ancestors
        self._child_s = {}
        self._by_name = {}
        for s in ordered:
            p = by_id.get(s.parent)
            if p is None:
                above[s.id] = frozenset()
            else:
                names = above[p.id]
                above[s.id] = names if p.name in names else names | {p.name}
                self._child_s[p.id] = self._child_s.get(p.id, 0.0) + s.seconds
            if s.name not in above[s.id]:
                self._by_name.setdefault(s.name, []).append(s)

    def outermost(self, name):
        """Spans called `name` that do not run inside another span of that name."""
        return self._by_name.get(name, [])

    def calls_and_seconds(self, name):
        tops = self.outermost(name)
        return len(tops), (sum(s.seconds for s in tops) if tops else None)

    def self_seconds(self, name):
        """Summed self time of the outermost `name` spans, or None without any."""
        tops = self.outermost(name)
        if not tops:
            return None
        return sum(s.seconds - self._child_s.get(s.id, 0.0) for s in tops)


def outermost(spans, name):
    return SpanIndex(spans).outermost(name)


def layer_metrics(spans, threads):
    """metric -> value for one traced pass; None marks an absent span.

    Call counts and summed seconds use the outermost spans of each name, so
    a wrapper that calls another wrapper of the same layer is not counted
    twice.  Time metrics with no span in the pass are absent; counts are
    reported as 0.
    """
    index = SpanIndex(spans)
    out = {}
    iters = sum(s.info.get("iters", 0) for s in index.outermost("solver.solve"))
    out["solver.iters"] = iters
    out["solver.svt_s"] = index.calls_and_seconds("solver.svt")[1]
    solve_self = index.self_seconds("solver.solve")
    out["solver.self_us_per_iter"] = solve_self / iters * 1e6 if iters else None
    out["solver.report_s"] = index.calls_and_seconds("solver.report")[1]
    for name in ("lifting.project", "lifting.factor", "lifting.matvec",
                 "lifting.assemble", "lifting.apply", "ensemble.make"):
        out[name + "_calls"], out[name + "_s"] = index.calls_and_seconds(name)
    dense_bytes = sum(s.info["bytes"] for s in index.outermost("lifting.matvec"))
    out["lifting.dense_bytes_per_iter"] = (
        dense_bytes / iters if iters and dense_bytes else None
    )
    out["lifting.spectrum_s"] = index.calls_and_seconds("lifting.spectrum")[1]
    out["harness.trials"], trial_s = index.calls_and_seconds("harness.trial")
    out["harness.trial_s"] = trial_s
    grid_s = index.calls_and_seconds("harness.run")[1]
    out["harness.pool_util"] = (
        trial_s / (threads * grid_s) if trial_s is not None and grid_s else None
    )
    out["cli.self_s"] = index.self_seconds("cli.main")
    for metric, name in (
        ("incoherence.report_s", "incoherence.report"),
        ("incoherence.gamma_s", "incoherence.gamma"),
        ("incoherence.mu_h_s", "incoherence.mu_h"),
        ("certificate.golfing_s", "certificate.golfing"),
        ("certificate.check_s", "certificate.check"),
    ):
        out[metric] = index.calls_and_seconds(name)[1]
    return out
