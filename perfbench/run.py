#!/usr/bin/env python3
"""Runs one sttsim benchmark workload and prints its result.

From the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the simulator libraries from
src/ plus the sttbench driver) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally. The last
line of stdout is the result: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The line before it gives the provenance the
result was measured under; the whole record is also written to
<build dir>/perfbench-results/. compare.py compares two sets of records.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
# Pool width: every usable CPU, capped so that a run on a large shared host
# keeps its memory (about 1.3 GB at width 4 on artifacts_cold) bounded.
MAX_WIDTH = 8


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds sttbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("sttsim sources (src/) not found next to perfbench/")
    out = os.path.join(bdir, "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(width())], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "sttbench")


def width():
    return max(1, min(len(os.sched_getaffinity(0)), MAX_WIDTH))


def cmake_cache(bdir):
    cache = {}
    path = os.path.join(bdir, "perfbench", "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def git(*args):
    try:
        r = subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                           capture_output=True, text=True)
        return r.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """sha256 over every file of src/ and perfbench/, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(bdir):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "width": width(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_sha": git("rev-parse", "HEAD"),
        "git_date": git("log", "-1", "--format=%cI"),
        "source_sha256": source_digest(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--perturb", default="",
                   help="corrupt this artifact's reference digest (self-test)")
    args = p.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(bdir, "perfbench-work", "%s-%d" % (tag, os.getpid()))
    results = os.path.join(bdir, "perfbench-results")
    os.makedirs(results, exist_ok=True)
    spans = os.path.join(results, tag + ".spans.json")
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--width=%d" % width(),
           "--reference=" + os.path.join(HERE, "reference_digests.txt"),
           "--work-dir=" + work]
    if args.trace:
        cmd.append("--spans-out=" + spans)
    if args.perturb:
        cmd.append("--perturb=" + args.perturb)
    # The stores must be the ones the workload opens itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("STTSIM_")}
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                           timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0:
        raise RuntimeError("sttbench exited with %d" % r.returncode)
    raw = json.loads(r.stdout.strip().splitlines()[-1])

    errors = list(raw["errors"])
    want = expected_metrics(args.trace)
    got = {n: m["unit"] for n, m in raw["metrics"].items()}
    if got != want:
        errors.append("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                      "unit mismatch %s" % (
                          sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                          sorted(n for n in want if n in got and got[n] != want[n])))
    for e in errors:
        log("check failed: " + e)

    result = {
        "correct": raw["failed"] == 0 and not errors,
        "attempted": max(1, raw["attempted"]),
        "failed": raw["failed"],
        "metrics": raw["metrics"],
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(bdir), "errors": errors,
              "result": result}
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        sys.exit(1)
