"""Self-test of the benchmark itself, at tiny sizes (about half a minute).

    python3 bench/selftest.py

For every workload it checks that
  1. every metric BENCHMARK.json names is printed with its unit, both on a
     `metric` line and in the final JSON line, untraced and traced;
  2. spans nest: no child span starts before or ends after its parent;
  3. each solve has exactly one `solver.svt` span (one ADMM iteration) per
     iteration its SolverReport returns, and `solver.iters` equals the
     iterations the reports return, summed over the pass.
Prints one line per failed check and exits 1 if there was any.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

run._import_demix()

import spans  # noqa: E402
import workloads  # noqa: E402


def check_output(name, trace, expected, failures):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny"])
    lines = out.getvalue().splitlines()
    where = "%s trace=%d" % (name, trace)
    if code != 0:
        failures.append("%s: exit code %r" % (where, code))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append("%s: result keys %r" % (where, sorted(result)))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        failures.append("%s: metrics %r, expected %r"
                        % (where, sorted(metrics), sorted(expected)))
    printed = {tuple(line.split()[1:4:2]) for line in lines if line.startswith("metric ")}
    for metric, unit in expected.items():
        got = metrics.get(metric, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            failures.append("%s: %s printed as %r, expected unit %s" % (where, metric, got, unit))
        if (metric, unit) not in printed:
            failures.append("%s: no 'metric %s <value> %s' line" % (where, metric, unit))


def check_spans(name, failures):
    with _tmpdir() as workdir:
        workload = workloads.WORKLOADS[name](5, True, workdir)
        rec, tracer = run.traced_pass(workload)
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.end < s.start:
            failures.append("%s: span %s ends before it starts" % (name, s.name))
        p = by_id.get(s.parent)
        if s.parent is not None and p is None:
            failures.append("%s: span %s has an unrecorded parent" % (name, s.name))
        elif p is not None and not (p.start <= s.start and s.end <= p.end):
            failures.append("%s: span %s outlives its parent %s" % (name, s.name, p.name))
    svt_children = {}
    for s in tracer.spans:
        if s.name == "solver.svt":
            svt_children[s.parent] = svt_children.get(s.parent, 0) + 1
    for s in spans.outermost(tracer.spans, "solver.solve"):
        if svt_children.get(s.id, 0) != s.info["iters"]:
            failures.append("%s: solve with %d iterations has %d svt spans"
                            % (name, s.info["iters"], svt_children.get(s.id, 0)))
    reported = sum(op.iterations for op in rec.ops)
    if rec.layers["solver.iters"] != reported:
        failures.append("%s: solver.iters %r but the reports return %d iterations"
                        % (name, rec.layers["solver.iters"], reported))


@contextlib.contextmanager
def _tmpdir():
    import shutil
    import tempfile

    scratch = os.path.join(run.ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    modes = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    if modes[0] != run.END_TO_END_UNITS:
        failures.append("bench/run.py end-to-end units differ from BENCHMARK.json")
    if modes[1] != spans.UNITS:
        failures.append("bench/spans.py layer units differ from BENCHMARK.json")
    for name in workloads.WORKLOADS:
        for trace, expected in modes.items():
            check_output(name, trace, expected, failures)
        check_spans(name, failures)
        print("checked %s" % name, flush=True)
    for msg in failures:
        print("FAIL " + msg)
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
