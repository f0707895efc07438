#!/usr/bin/env python3
"""tm_bench smoke test: every workload at its smoke size, untraced and traced.

    smoke_test.py --tm-bench PATH --benchmark-json PATH

Each run must exit 0 with correct == true, so every correctness check and
every pinned seed-42 digest passed, and must print exactly the metrics
BENCHMARK.json names for its mode (end_to_end untraced, per_layer traced),
each with its unit, both as a "metric" line and in the final JSON line. A
traced run must also write a Chrome trace-event file.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def check_run(tm_bench, workload, wanted, work_dir, trace_path):
    command = [tm_bench, "--workload", workload, "--seed", "42",
               "--seconds", "0.3", "--smoke", "1", "--work-dir", work_dir]
    if trace_path:
        command += ["--trace", trace_path]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120)
    lines = done.stdout.strip().splitlines()
    problems = []
    if done.returncode != 0:
        problems.append("exit code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["no JSON result line"]
    if not result["correct"]:
        failed = [name for name, c in result["checks"].items() if not c["ok"]]
        problems.append("failed checks: " + ", ".join(failed))
    printed = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            printed[fields[1]] = fields[3]
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if printed.get(name) != unit:
            problems.append("no metric line for %s in %s" % (name, unit))
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append("JSON lacks %s in %s" % (name, unit))
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append("metrics not in BENCHMARK.json: " +
                        ", ".join(sorted(extra)))
    if trace_path:
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            if not events:
                problems.append("empty trace")
        except (OSError, ValueError, KeyError) as error:
            problems.append("unreadable trace: %s" % error)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tm-bench", required=True)
    parser.add_argument("--benchmark-json", required=True)
    args = parser.parse_args()
    with open(args.benchmark_json) as f:
        spec = json.load(f)

    failures = 0
    with tempfile.TemporaryDirectory() as work_dir:
        for workload in [w["name"] for w in spec["workloads"]]:
            for traced in (False, True):
                mode = "traced" if traced else "untraced"
                trace_path = (os.path.join(work_dir, workload + ".json")
                              if traced else "")
                wanted = spec["per_layer" if traced else "end_to_end"]
                problems = check_run(args.tm_bench, workload, wanted,
                                     work_dir, trace_path)
                status = "FAILED: " + "; ".join(problems) if problems else "ok"
                print("%s %s: %s" % (workload, mode, status))
                failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
