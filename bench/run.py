"""Benchmark of the demix package: one workload per process.

    python3 bench/run.py --workload noise-ball --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src`
directory.  The workload's inputs are generated from --seed.  Passes of
the workload repeat while the next pass still ends within --seconds of
the start of the process (at least one pass).  With --trace 0 the set-up
probes run first, inside the same --seconds, and the result holds the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and holds the per-layer metrics of the traced ones.  Output checks
run on every pass; the last line of standard output is one JSON object
with keys correct, attempted, failed and metrics, and the exit code is 1
when a check failed.  See bench/README.md for the workloads and metrics.
"""

import os
import sys
import time

# Every run ends its last pass within --seconds of this instant.
_STARTED = time.perf_counter()

# Pin BLAS to one thread before anything imports numpy, here and in every
# child process.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_INHERITED = {v: os.environ.get(v) for v in _THREAD_VARS}
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fresh processes timed from spawn until their inputs are built.
SETUP_PROBES = 7


def _import_demix():
    """Import demix from this checkout's src, or exit 2 when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "demix", "__init__.py")):
        sys.stderr.write("error: no demix package under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import demix

    if os.path.dirname(os.path.dirname(os.path.abspath(demix.__file__))) != SRC:
        sys.stderr.write("error: imported demix from %s, not %s\n" % (demix.__file__, SRC))
        sys.exit(2)
    return demix


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the self-test")
    p.add_argument("--probe", action="store_true",
                   help="build the inputs, print 'ready' and exit (set-up timing)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


# ----------------------------------------------------------------------
# Passes


class PassRecord:
    def __init__(self, wall_s, ops, problems, traced, layers=None):
        self.wall_s = wall_s
        self.ops = ops
        self.problems = problems
        self.traced = traced
        self.layers = layers


def run_pass(workload, index=0):
    t0 = time.perf_counter()
    try:
        ops, problems = workload.run_pass(index)
    except Exception as exc:  # a raising pass is reported as a failed pass
        traceback.print_exc()
        ops, problems = [], ["pass raised %s: %s" % (type(exc).__name__, exc)]
    return PassRecord(time.perf_counter() - t0, ops, problems, traced=False)


def traced_pass(workload, index=0):
    """One pass under a fresh tracer; returns (PassRecord, tracer)."""
    import spans

    with spans.Tracer() as tracer:
        rec = run_pass(workload, index)
    rec.traced = True
    rec.layers = spans.layer_metrics(tracer.spans, workload.threads)
    return rec, tracer


def run_passes(workload, deadline, trace):
    """Passes (with trace: untraced/traced pairs) while the next one still
    ends before `deadline`, judged by the duration of the last; at least
    one.  Pass k runs on the workload's inputs number k; traced runs keep
    to inputs 0, so that their counts repeat whatever the pass count."""
    passes = []
    missing = []
    last = time.perf_counter()
    for k in itertools.count():
        index = 0 if trace else k
        passes.append(run_pass(workload, index))
        if trace:
            rec, tracer = traced_pass(workload, index)
            passes.append(rec)
            missing = tracer.missing
        now = time.perf_counter()
        if now + (now - last) > deadline:
            return passes, missing
        last = now


def probe_setup(args, n):
    """Median seconds from spawning this script to its inputs being built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %r)" % proc.returncode)
        times.append(elapsed)
    return statistics.median(times)


# ----------------------------------------------------------------------
# Metrics


END_TO_END_UNITS = {
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.max": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "recovered_frac": "frac",
}


def end_to_end(passes, setup_s):
    """The end-to-end metrics; per-pass statistics are medians over passes,
    so a slower first pass (lazy set-up in numpy/scipy) does not set them."""
    ops = [op for p in passes for op in p.ops]
    attempted, failed = counts(passes)

    def per_pass(stat):
        values = [stat([op.seconds for op in p.ops]) for p in passes if p.ops]
        return statistics.median(values) if values else 0.0

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_s.p50": per_pass(statistics.median),
        "op_s.max": per_pass(max),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
        "recovered_frac": sum(op.recovered for op in ops) / attempted,
    }


def per_layer(passes):
    """Median over traced passes of each layer metric; absent names listed."""
    import spans

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    out = {}
    absent = []
    for name, unit, _better in spans.LAYER_METRICS:
        if name == "trace.overhead_frac":
            out[name] = (statistics.median(p.wall_s for p in traced)
                         / statistics.median(p.wall_s for p in untraced) - 1.0)
            continue
        values = [p.layers[name] for p in traced if p.layers[name] is not None]
        if values:
            median = statistics.median_low if unit == "count" else statistics.median
            out[name] = median(values)
        else:
            out[name] = 0.0
            absent.append(name)
    return out, absent


def counts(passes):
    """(attempted, failed) operations.

    A failed pass-level check fails every operation of its pass; a pass that
    produced no operations counts as one failed operation.
    """
    attempted = failed = 0
    for p in passes:
        n = max(len(p.ops), 1)
        attempted += n
        if p.problems:
            failed += n
        else:
            failed += sum(bool(op.problems) for op in p.ops)
    return attempted, failed


def environment(args, demix, workload):
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return "%s %s" % (info["name"], info["version"])
        except (KeyError, TypeError, ValueError):
            return "unknown"

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_threads": workload.threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "thread_env_inherited": _INHERITED,
        "demix": demix.__version__,
        "commit": git_commit(ROOT),
    }


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def main(argv=None):
    args = parse_args(argv)
    demix = _import_demix()
    sys.path.insert(0, HERE)
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        sys.stderr.write("error: unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        workload = cls(args.seed, args.size == "tiny", workdir)
        if args.probe:
            print("ready", flush=True)
            return 0
        return report(args, demix, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, demix, workload):
    if not args.trace:
        n_probes = SETUP_PROBES if args.size == "full" else 1
        setup_s = probe_setup(args, n_probes)
    passes, missing = run_passes(workload, _STARTED + args.seconds, args.trace)
    print("env " + json.dumps(environment(args, demix, workload), sort_keys=True))
    problems = [msg for p in passes for msg in p.problems]
    problems += ["%s: %s" % (op.label, msg) for p in passes for op in p.ops
                 for msg in op.problems]
    for msg in problems:
        print("check failed: " + msg)
    ops = [op for p in passes for op in p.ops]
    attempted, failed = counts(passes)
    print("passes %d (%d traced), operations %d, iterations %d"
          % (len(passes), sum(p.traced for p in passes), len(ops),
             sum(op.iterations for op in ops)))
    print("pass wall_s: " + " ".join(
        "%.3f%s" % (p.wall_s, "t" if p.traced else "") for p in passes))
    print("metric fail_frac %r frac" % (failed / attempted))
    if args.trace:
        import spans

        values, absent = per_layer(passes)
        units = spans.UNITS
        if missing:
            print("wrap targets missing: " + ", ".join(missing))
        print("absent: " + (", ".join(absent) if absent else "none"))
    else:
        values = end_to_end(passes, setup_s)
        units = END_TO_END_UNITS
        print("samples op_s: %d operations over %d passes; setup_s: %d probes"
              % (len(ops), len(passes), n_probes))
    for name, value in values.items():
        print("metric %s %s %s" % (name, _fmt(value), units[name]))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
