"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 --out runs.jsonl
    python3 bench/spread.py --workloads noise-ball --seeds 1-5 --trace 1
    python3 bench/spread.py --summarize runs.jsonl

Each run is one `bench/run.py` process with BENCHMARK.json's run_seconds.
Its final JSON line is appended to --out as {"workload", "seed", "trace",
"exit", "result"}.  The summary gives, per workload and metric, the
median, the quartiles from statistics.quantiles(values, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "result": result}


def summarize(records, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    by_key = {}
    for rec in records:
        by_key.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for (workload, trace), recs in sorted(by_key.items()):
        bad = [r["seed"] for r in recs if r["exit"] != 0 or not r["result"]]
        print("%s trace=%d: %d runs, seeds %s%s" % (
            workload, trace, len(recs), ",".join(str(r["seed"]) for r in recs),
            "; nonzero exit or no result on seeds %s" % bad if bad else ""))
        ok = [r["result"] for r in recs if r["result"]]
        if not ok:
            continue
        print("  %-30s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in ok[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in ok]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print("  %-30s %14.6g %14.6g %14.6g %8.4f %6s" % (
                name, med, q1, q3, spread, "" if bound is None else bound))


def main(argv=None):
    bench = load_bench()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append run records to this JSON-lines file")
    p.add_argument("--summarize", metavar="FILE", help="only summarize this file")
    args = p.parse_args(argv)
    if args.summarize:
        with open(args.summarize) as fh:
            summarize([json.loads(line) for line in fh if line.strip()], bench)
        return 0
    records = []
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            rec = run_one(workload, seed, bench["run_seconds"], args.trace)
            records.append(rec)
            print("ran %s seed %d: exit %d" % (workload, seed, rec["exit"]), flush=True)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
    summarize(records, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
