#!/usr/bin/env python3
"""Compares two commits on the repository benchmark (BENCHMARK.json).

Collect alternating runs of a parent and a change checkout, then report:

    compare_benchmark.py run --parent DIR --change DIR --pairs 10 --out runs.jsonl
    compare_benchmark.py report runs.jsonl [--benchmark BENCHMARK.json]

`run` executes `python3 tmbench/run.py` in each checkout, pair by pair, for
every workload and for the change's BENCHMARK.json run_seconds; pair k uses
seed k + 1 on both sides and swaps which side runs first on every other
pair. Each finished run is appended to the JSONL file as {"side", "pair",
"workload", "seed", "result", "digests"}, where result is run.py's output
line and digests maps each "digest <name> <sha256>" line it printed. Pointing
both sides at one checkout measures the benchmark's own run-to-run
agreement.

`report` prints, for every workload and end-to-end metric, each side's
median and quartiles, the change's pair win rate, and a verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own spread (the distance between its quartiles);
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's spread is wider than the bound, so a regression
              of that size could not be seen, and not every change run
              reads better than every parent run;
  unchanged   none of the above.

A workload whose share of failed operations rose, any run that reported
correct == false, and any digest that differs between the two sides for the
same workload and seed (the change computes something else) also count as
regressions. The exit code is 1 when anything regressed and 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(parent, change, better):
    """Relative amount by which `change` is worse than `parent` (< 0: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(parent_runs, change_runs, pairs, metric):
    """Judges one workload x metric; returns a dict for printing/testing.

    `pairs` lists (parent_value, change_value) of runs that share a pair.
    """
    better, bound = metric["better"], metric["bound"]
    pq1, pmed, pq3 = quartiles(parent_runs)
    cq1, cmed, cq3 = quartiles(change_runs)
    spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    change_spread = (cq3 - cq1) / abs(cmed) if cmed else 0.0
    wins = sum(1 for p, c in pairs if is_better(c, p, better))
    win_rate = wins / len(pairs) if pairs else 0.0
    worse = worse_by(pmed, cmed, better)
    all_better = all(is_better(c, p, better)
                     for c in change_runs for p in parent_runs)
    gained = (is_better(cmed, pmed, better) and win_rate >= 0.9 and
              abs(cmed - pmed) > (pq3 - pq1))
    if spread > bound and not all_better:
        result = "unresolved"
    elif worse > bound:
        result = "regressed"
    elif gained:
        result = "improved"
    else:
        result = "unchanged"
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "spread": spread, "change_spread": change_spread,
            "win_rate": win_rate, "worse_by": worse,
            "verdict": result}


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def failed_share(result):
    return result["failed"] / max(result["attempted"], 1)


def digest_mismatches(runs):
    """(seed, name, parent digest, change digest) for every digest the two
    sides printed differently for the same seed."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r.get("digests", {})
    out = []
    for seed in sorted(by_seed):
        sides = by_seed[seed]
        parent, change = sides.get("parent", {}), sides.get("change", {})
        for name in sorted(set(parent) & set(change)):
            if parent[name] != change[name]:
                out.append((seed, name, parent[name], change[name]))
    return out


def report(runs, spec, out=None):
    """Prints the comparison; returns the number of regressions."""
    out = out or sys.stdout
    regressions = 0
    metrics = spec["end_to_end"]
    for workload in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload]
        by_side = {side: [r for r in mine if r["side"] == side]
                   for side in ("parent", "change")}
        if not by_side["parent"] or not by_side["change"]:
            continue
        n_pairs = len({r["pair"] for r in mine})
        print("\n%s (%d parent runs, %d change runs)" % (
            workload, len(by_side["parent"]), len(by_side["change"])),
            file=out)
        if n_pairs < MIN_PAIRS:
            print("  note: %d pairs; a claim needs at least %d" %
                  (n_pairs, MIN_PAIRS), file=out)
        incorrect = [r for r in mine if not r["result"]["correct"]]
        if incorrect:
            regressions += 1
            print("  REGRESSION: %d runs reported correct == false" %
                  len(incorrect), file=out)
        for seed, name, parent, change in digest_mismatches(mine):
            regressions += 1
            print("  REGRESSION: seed %d %s differs: parent %s, change %s" %
                  (seed, name, parent, change), file=out)
        shares = {side: statistics.median(failed_share(r["result"])
                                          for r in by_side[side])
                  for side in by_side}
        if shares["change"] > shares["parent"]:
            regressions += 1
            print("  REGRESSION: failed share rose from %.6f to %.6f" %
                  (shares["parent"], shares["change"]), file=out)
        print("  %-20s %-29s %-29s %13s %5s %7s  %s" % (
            "metric", "parent q1/median/q3", "change q1/median/q3",
            "spread p/c", "wins", "worse", "verdict"), file=out)
        for metric in metrics:
            name = metric["name"]
            values = {side: [r["result"]["metrics"][name]["value"]
                             for r in by_side[side]] for side in by_side}
            paired = {}
            for r in mine:
                paired.setdefault(r["pair"], {})[r["side"]] = (
                    r["result"]["metrics"][name]["value"])
            pairs = [(p["parent"], p["change"]) for p in paired.values()
                     if "parent" in p and "change" in p]
            v = verdict(values["parent"], values["change"], pairs, metric)
            if v["verdict"] == "regressed":
                regressions += 1
            print("  %-20s %-29s %-29s %6.3f/%6.3f %5.2f %+7.3f  %s (bound %g)"
                  % (name, "%.4g/%.4g/%.4g" % v["parent"],
                     "%.4g/%.4g/%.4g" % v["change"], v["spread"],
                     v["change_spread"], v["win_rate"], v["worse_by"],
                     v["verdict"], metric["bound"]), file=out)
    return regressions


def run_pairs(args, spec):
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = pair + 1
            sides = [("parent", args.parent), ("change", args.change)]
            if pair % 2 == 1:
                sides.reverse()
            for workload in [w["name"] for w in spec["workloads"]]:
                for side, checkout in sides:
                    done = subprocess.run(
                        [sys.executable, "tmbench/run.py", "--workload",
                         workload, "--seed", str(seed), "--seconds",
                         str(spec["run_seconds"]), "--trace", "0"],
                        cwd=checkout, capture_output=True, text=True)
                    lines = done.stdout.strip().splitlines()
                    if not lines:
                        sys.stderr.write(done.stderr)
                        print("compare_benchmark: %s run failed (%s, seed %d)"
                              % (side, workload, seed), file=sys.stderr)
                        return 1
                    digests = {f[1]: f[2] for f in map(str.split, lines)
                               if len(f) == 3 and f[0] == "digest"}
                    record = {"side": side, "pair": pair,
                              "workload": workload, "seed": seed,
                              "result": json.loads(lines[-1]),
                              "digests": digests}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print("pair %d %s %s done" % (pair, workload, side),
                          file=sys.stderr)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="collect alternating runs")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="compare collected runs")
    rep.add_argument("runs")
    rep.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args(argv)

    if args.command == "run":
        with open(os.path.join(args.change, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return run_pairs(args, spec)
    with open(args.benchmark) as f:
        spec = json.load(f)
    regressions = report(load_runs(args.runs), spec)
    print("\n%d regression(s)" % regressions)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
