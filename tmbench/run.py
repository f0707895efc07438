#!/usr/bin/env python3
"""Builds tm_bench from this checkout and runs one workload of BENCHMARK.json.

    python3 tmbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

The build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset
(CMake, Release; a no-op once built). tm_bench then runs the workload from
the repository root for --seconds, by default BENCHMARK.json's run_seconds.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it records
spans to <build dir>/trace-<workload>.json and reports the per-layer
metrics. The run must print exactly the metrics BENCHMARK.json names for
that mode, with their units.

Standard output is tm_bench's own lines (metrics, checks, notes and
"digest <name> <sha256>" lines, which compare_benchmark.py reads), then, as
the last line, one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 only when tm_bench passed every correctness check. When
the build or the run fails, nothing is printed on standard output and the
exit code is 1.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "tmbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (first time only) and builds tm_bench; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", build_dir, "--target", "tm_bench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "tm_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    seconds = args.seconds or spec["run_seconds"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--work-dir", os.path.relpath(build_dir, ROOT)]
    if args.trace:
        command += ["--trace", os.path.join(
            build_dir, "trace-%s.json" % args.workload)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("tm_bench did not finish: %s" % error)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("tm_bench printed no result (exit %d)" % done.returncode)

    metrics = result["metrics"]
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail("tm_bench did not report %s in %s" %
                 (metric["name"], metric["unit"]))
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        fail("tm_bench reported metrics BENCHMARK.json does not name: " +
             ", ".join(sorted(extra)))

    correct = bool(result["correct"]) and done.returncode == 0
    print("\n".join(lines[:-1]))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
