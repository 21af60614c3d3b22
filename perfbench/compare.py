#!/usr/bin/env python3
"""Compares two sets of benchmark results. From the repository root:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes (perfbench-results/*.json).
Records of the traced runs are ignored. For every workload and end-to-end
metric, the median of NEW is compared with the median of BASE, in the
metric's better direction, against its bound in BENCHMARK.json.

Results from a different host or build are not comparable: if the CPU model,
nproc, pool width, compiler or build type differ between the two sets, this
prints "not comparable" and exits 3, without reporting any regression.
Otherwise it exits 1 if a metric is worse by more than its bound, else 0.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu_model", "nproc", "width", "compiler", "build_type")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            records.append(record)
    if not records:
        sys.exit("compare: no end-to-end records in %s" % directory)
    return records


def hosts(records):
    return {tuple(r["provenance"].get(k) for k in HOST_KEYS) for r in records}


def medians(records):
    values = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if len(hosts(base) | hosts(new)) != 1:
        print("not comparable: results come from different hosts or builds")
        for h in sorted(hosts(base) | hosts(new), key=str):
            print("  " + ", ".join("%s=%s" % kv for kv in zip(HOST_KEYS, h)))
        sys.exit(3)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    b, n = medians(base), medians(new)
    regressed = False
    for key in sorted(b.keys() & n.keys()):
        workload, name = key
        m = spec.get(name)
        if m is None or b[key] == 0:
            continue
        change = (n[key] - b[key]) / abs(b[key])
        worse = change if m["better"] == "lower" else -change
        verdict = "REGRESSION" if worse > m["bound"] else "ok"
        regressed |= verdict != "ok"
        print("%-16s %-18s %14.6g -> %-14.6g %+7.2f%%  (bound %.0f%%)  %s" % (
            workload, name, b[key], n[key], 100 * change, 100 * m["bound"],
            verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
