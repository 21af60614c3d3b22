#!/usr/bin/env python3
"""The benchmark's own checks. From the repository root:

    python3 perfbench/selftest.py

1. Every workload, run briefly with --trace 0 and --trace 1, emits every
   metric BENCHMARK.json names, with its unit, and reports itself correct.
2. A perturbed reference digest is counted as a failed operation.
3. In each traced run, every parent span's children's self times sum to no
   more than the parent's duration (checked here on the written spans,
   independently of the driver's own check).
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py's helpers: build dir, expected metrics)


def bench(workload, trace, *extra):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace)] + list(extra),
                       cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(r.stdout.strip().splitlines()[-1])


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def self_times(spans):
    """Self time = duration minus the part of it the span's children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered, end = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], end), min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                end = hi
        result[s["id"]] = s["end_ns"] - s["start_ns"] - covered
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    results = os.path.join(run.build_dir(), "perfbench-results")
    for w in workloads:
        for trace in (0, 1):
            r = bench(w, trace)
            want = run.expected_metrics(trace)
            got = {n: m["unit"] for n, m in r["metrics"].items()}
            check(got == want, "%s --trace %d emits every metric with its unit"
                  % (w, trace))
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  "%s --trace %d: %d operations, none failed"
                  % (w, trace, r["attempted"]))
        with open(os.path.join(results, "%s-s7-t1.spans.json" % w)) as f:
            spans = json.load(f)
        selfs = self_times(spans)
        child_self = {}
        for s in spans:
            if s["parent"]:
                child_self[s["parent"]] = child_self.get(s["parent"], 0) + selfs[s["id"]]
        check(spans and all(child_self.get(s["id"], 0) <= s["end_ns"] - s["start_ns"]
                            for s in spans),
              "%s: %d spans; children's self times fit in their parents"
              % (w, len(spans)))
    r = bench("artifacts_cold", 0, "--perturb", "fig5_transformations")
    check(not r["correct"] and r["failed"] >= 1,
          "a perturbed reference digest is counted as a failure (%d of %d)"
          % (r["failed"], r["attempted"]))


if __name__ == "__main__":
    main()
