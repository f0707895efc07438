#!/usr/bin/env python3
"""Compare a fresh bench run against its committed baseline at the repo
root and fail on regression. Dispatches on the fresh log's "bench" field:

  context_throughput  (bench_context_throughput -> BENCH_context.json)
    Raw milliseconds are machine-dependent, so the gate compares the one
    machine-independent number the bench is built around: the end-to-end
    speedup of one shared AnalysisContext over re-interning the history
    (AnalysisContext::Build) inside every query, per scale. A fresh
    per-scale speedup below `factor` (default 0.8, i.e. a >20%
    regression) of the committed baseline fails; per-phase speedups and
    absolute context_ms are printed for diagnosis but not gated (single
    phases are too noisy on shared CI runners). The fresh run must also
    keep every scale at >= 1.0x — sharing a sealed context must never be
    slower than re-interning per query.
    Both sides run the same query code and the re-interning side also
    runs Build, so the speedup is (Build + query) / query: it measures
    Build cost against query cost. It catches a query-side slowdown, but
    a slower Build *raises* it, so this gate cannot catch a Build
    regression (context_build_ms is recorded, not gated).

  chain_growth  (bench_chain_growth -> BENCH_chain_growth.json)
    The epoch-chain contract is gated machine-independently on growth
    *ratios*, never raw milliseconds. Hard gate: per-block append cost
    must stay flat while the token universe grows — a fresh
    append_growth_ratio at or above half the token_growth_ratio means
    appends picked up a linear component (the exact regression the
    EpochChain refactor deleted) and fails. The append ratio must also
    stay below the full-rebuild ratio (appending a block must scale
    better than rebuilding). Relative gate: the fresh append ratio may
    not exceed max(2.0, baseline_ratio / factor) — flatness must not
    erode quietly across commits. Smoke runs print everything but skip
    the hard ratio gates: their measurement windows are too small to
    amortize generation-buffer regrowth spikes.

  serve  (tm_load -> BENCH_serve.json)
    The robustness contract is gated hard, machine-independently:
    every issued request must have resolved to a typed verdict
    (resolved == issued) and nothing may have crashed or produced an
    untyped verdict (crashes == 0). The service quality gate is
    relative: the fresh ok_fraction must reach `factor` of the
    baseline's (a fault-injected soak never demands a fixed absolute
    success rate). Throughput and latency percentiles are printed for
    trend-watching but not gated — they measure the CI runner as much
    as the daemon.

  figures  (bench_figures -> BENCH_figures.json)
    Ring output is deterministic, so it is compared exactly: every
    point's solved, unsat, ring_members_total and ring_digest per
    approach, and Figure 3's counts, must equal the baseline's, and each
    point that differs is named. Then the paper's Section 7 shapes are
    asserted on the fresh run with tolerances fixed in CLAIMS below
    (see EXPERIMENTS.md). Times are printed, not gated.

Usage:  python3 tools/bench/check_bench_regression.py FRESH.json \
            [--baseline BENCH.json] [--factor 0.8]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
DEFAULT_BASELINES = {
    "context_throughput": REPO_ROOT / "BENCH_context.json",
    "chain_growth": REPO_ROOT / "BENCH_chain_growth.json",
    "serve": REPO_ROOT / "BENCH_serve.json",
    "figures": REPO_ROOT / "BENCH_figures.json",
}


def load(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("bench") not in DEFAULT_BASELINES:
        sys.exit(f"{path}: unknown bench kind {data.get('bench')!r}")
    if data["bench"] == "figures":
        validate_figures(path, data)
    return data


def check_context(baseline_data: dict, fresh_data: dict,
                  factor: float) -> int:
    baseline = {s["num_rs"]: s for s in baseline_data["scales"]}
    fresh = {s["num_rs"]: s for s in fresh_data["scales"]}
    failures = 0
    for num_rs, base_scale in sorted(baseline.items()):
        fresh_scale = fresh.get(num_rs)
        if fresh_scale is None:
            print(f"FAIL: fresh run is missing the {num_rs}-RS scale",
                  file=sys.stderr)
            failures += 1
            continue
        base_speedup = base_scale["speedup"]
        fresh_speedup = fresh_scale["speedup"]
        ratio = fresh_speedup / base_speedup if base_speedup > 0 else 0.0
        print(f"scale {num_rs:>6} RS: baseline {base_speedup:.2f}x, "
              f"fresh {fresh_speedup:.2f}x (ratio {ratio:.2f})")
        for phase in fresh_scale.get("phases", []):
            print(f"    {phase['name']:<16} {phase['speedup']:.2f}x  "
                  f"context {phase['context_ms']:.3f} ms")
        if fresh_speedup < 1.0:
            print(f"FAIL: {num_rs}-RS scale: shared context is slower than "
                  f"re-interning per query ({fresh_speedup:.2f}x)",
                  file=sys.stderr)
            failures += 1
        elif ratio < factor:
            print(f"FAIL: {num_rs}-RS scale regressed to {ratio:.2f} of "
                  f"the baseline speedup (floor {factor})",
                  file=sys.stderr)
            failures += 1
    return failures


def check_chain_growth(baseline_data: dict, fresh_data: dict,
                       factor: float) -> int:
    failures = 0
    for cp in fresh_data["checkpoints"]:
        print(f"chain-growth: {cp['tokens']:>8} tokens / {cp['rs']:>6} RS: "
              f"mean append {cp['mean_append_ms']:.4f} ms "
              f"(window {cp['append_window_blocks']} blocks), "
              f"full build {cp['full_build_ms']:.3f} ms")
    token_ratio = fresh_data["token_growth_ratio"]
    append_ratio = fresh_data["append_growth_ratio"]
    build_ratio = fresh_data["build_growth_ratio"]
    base_append = baseline_data["append_growth_ratio"]
    print(f"chain-growth: over {token_ratio:.0f}x tokens, append grew "
          f"{append_ratio:.2f}x (baseline {base_append:.2f}x), full "
          f"rebuild grew {build_ratio:.2f}x")

    if len(fresh_data["checkpoints"]) < 2:
        print("FAIL: chain-growth run has fewer than two checkpoints",
              file=sys.stderr)
        return failures + 1
    if fresh_data.get("smoke"):
        print("chain-growth: smoke run, ratio gates skipped (windows too "
              "small to amortize generation regrowth)")
        return failures

    # Hard, machine-independent: appends must not pick up a linear
    # component. Linear growth would track token_ratio (~10x); flat is
    # ~1x; halfway is already a broken amortization.
    ceiling = token_ratio * 0.5
    if append_ratio >= ceiling:
        print(f"FAIL: append cost grew {append_ratio:.2f}x over "
              f"{token_ratio:.0f}x tokens (superlinear-append ceiling "
              f"{ceiling:.1f}x) — per-block appends are no longer O(delta)",
              file=sys.stderr)
        failures += 1
    # Appending one block must scale strictly better than rebuilding
    # everything, or the epoch chain has lost its reason to exist.
    if append_ratio >= build_ratio:
        print(f"FAIL: append growth {append_ratio:.2f}x is not below "
              f"full-rebuild growth {build_ratio:.2f}x", file=sys.stderr)
        failures += 1
    # Relative: flatness must not erode quietly vs the committed baseline
    # (with an absolute 2.0x allowance so a near-1.0 baseline does not
    # turn runner noise into failures).
    rel_ceiling = max(2.0, base_append / factor)
    if append_ratio > rel_ceiling:
        print(f"FAIL: append growth {append_ratio:.2f}x exceeds "
              f"{rel_ceiling:.2f}x (baseline {base_append:.2f}x / factor "
              f"{factor})", file=sys.stderr)
        failures += 1
    return failures


def check_serve(baseline_data: dict, fresh_data: dict,
                factor: float) -> int:
    failures = 0
    issued = fresh_data["issued"]
    resolved = fresh_data["resolved"]
    crashes = fresh_data["crashes"]
    latency = fresh_data.get("latency_micros", {})
    print(f"serve: issued {issued}, resolved {resolved}, "
          f"crashes {crashes}, "
          f"faults injected {fresh_data.get('faults_injected', 0)}")
    print(f"serve: throughput {fresh_data.get('throughput_rps', 0.0):.1f} "
          f"req/s (ungated), latency p50 {latency.get('p50', 0):.0f} us, "
          f"p99 {latency.get('p99', 0):.0f} us, "
          f"p999 {latency.get('p999', 0):.0f} us")

    # Hard contract: nothing hangs, nothing crashes, nothing untyped.
    if resolved != issued:
        print(f"FAIL: {issued - resolved} of {issued} requests never "
              "resolved to a typed verdict", file=sys.stderr)
        failures += 1
    if crashes != 0:
        print(f"FAIL: {crashes} crash(es)/untyped verdict(s)",
              file=sys.stderr)
        failures += 1
    if issued == 0:
        print("FAIL: the run issued no requests", file=sys.stderr)
        failures += 1

    base_ok = baseline_data["ok_fraction"]
    fresh_ok = fresh_data["ok_fraction"]
    floor = base_ok * factor
    print(f"serve: ok_fraction baseline {base_ok:.4f}, fresh "
          f"{fresh_ok:.4f} (floor {floor:.4f})")
    if fresh_ok < floor:
        print(f"FAIL: ok_fraction {fresh_ok:.4f} fell below {factor} of "
              f"the baseline's {base_ok:.4f}", file=sys.stderr)
        failures += 1
    return failures


# -- figures ---------------------------------------------------------------

# The sweep axis of each figure bench_figures runs; Figure 3 is counts.
FIGURE_AXES = {"fig5": "c", "fig6": "ell", "fig7": "sigma",
               "fig8": "super_rs", "fig9": "super_size_max",
               "fig10": "fresh"}
APPROACHES = ("TM_P", "TM_G", "TM_S", "TM_R")
EXACT_FIELDS = ("solved", "unsat", "ring_members_total", "ring_digest")
# Steps the monotone claims forgive: a 1% move against the claimed trend.
STEP_TOLERANCE = 0.01
# Largest max/min a "flat" series may show.
FLAT_BAND = 1.15
MIN_R_SQUARED = 0.99
# Figure 10: the size at |F| = 20 must be at most this share of |F| = 0.
FRESH_DRIFT = 0.97


def validate_figures(path: pathlib.Path, data: dict) -> None:
    figures = data.get("figures", {})
    for name, figure in figures.items():
        if name == "fig3":
            continue
        if name not in FIGURE_AXES:
            sys.exit(f"{path}: unknown figure {name!r}")
        for point in figure["points"]:
            names = set(point["approaches"])
            if names != set(APPROACHES):
                sys.exit(f"{path}: {name} x={point['x']}: unknown or "
                         f"missing approach in {sorted(names)}")
    missing = ({"fig3"} | set(FIGURE_AXES)) - set(figures)
    if missing:
        sys.exit(f"{path}: missing figure(s) {sorted(missing)}")


def point_label(name: str, axis: str, point: dict) -> str:
    return f"{name} {axis}={point['x']:g}"


def compare_figures_exactly(baseline: dict, fresh: dict) -> int:
    failures = 0
    base_fig3 = baseline["figures"]["fig3"]
    fresh_fig3 = fresh["figures"]["fig3"]
    for field in ("transactions", "tokens", "outputs"):
        if base_fig3[field] != fresh_fig3[field]:
            print(f"FAIL: fig3 {field}: baseline {base_fig3[field]}, "
                  f"fresh {fresh_fig3[field]}", file=sys.stderr)
            failures += 1
    for name, axis in FIGURE_AXES.items():
        fresh_points = {p["x"]: p for p in fresh["figures"][name]["points"]}
        for base_point in baseline["figures"][name]["points"]:
            label = point_label(name, axis, base_point)
            fresh_point = fresh_points.get(base_point["x"])
            if fresh_point is None:
                print(f"FAIL: {label}: missing from the fresh run",
                      file=sys.stderr)
                failures += 1
                continue
            for approach in APPROACHES:
                base = base_point["approaches"][approach]
                new = fresh_point["approaches"][approach]
                for field in EXACT_FIELDS:
                    if base[field] != new[field]:
                        print(f"FAIL: {label} {approach}: {field} "
                              f"baseline {base[field]}, fresh {new[field]}",
                              file=sys.stderr)
                        failures += 1
    return failures


def sizes(figure: dict, approach: str) -> list[float]:
    return [p["approaches"][approach]["mean_ring_size"]
            for p in figure["points"]]


def monotone(figure: dict, approach: str, falling: bool,
             tolerance: float) -> str | None:
    """None when the approach's sizes never move against the trend by
    more than `tolerance` per step; else the offending step."""
    values = sizes(figure, approach)
    xs = [p["x"] for p in figure["points"]]
    for i in range(1, len(values)):
        before, after = values[i - 1], values[i]
        bad = (after > before * (1 + tolerance) if falling
               else after < before * (1 - tolerance))
        if bad:
            return (f"{approach} {before:.2f} -> {after:.2f} from "
                    f"x={xs[i - 1]:g} to x={xs[i]:g}")
    return None


def flat(figure: dict, approach: str) -> str | None:
    values = sizes(figure, approach)
    ratio = max(values) / min(values)
    if ratio > FLAT_BAND:
        return f"{approach} max/min {ratio:.3f} > {FLAT_BAND}"
    return None


def linear(figure: dict, approach: str) -> str | None:
    xs = [p["x"] for p in figure["points"]]
    ys = sizes(figure, approach)
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    sxx = sum((x - mean_x) ** 2 for x in xs)
    syy = sum((y - mean_y) ** 2 for y in ys)
    r_squared = sxy * sxy / (sxx * syy) if sxx > 0 and syy > 0 else 0.0
    if r_squared < MIN_R_SQUARED:
        return f"{approach} R^2 {r_squared:.4f} < {MIN_R_SQUARED}"
    return None


def point_at(figure: dict, x: float) -> dict:
    return next(p for p in figure["points"] if p["x"] == x)


def claim_fig3(figures: dict) -> str | None:
    fig3 = figures["fig3"]
    got = (fig3["mode"], fig3["transactions"], fig3["tokens"])
    if got != (2, 285, 633):
        return ("mode/transactions/tokens "
                f"{got[0]}/{got[1]}/{got[2]}, expected 2/285/633")
    return None


def claim_fig7_baselines_unsat(figures: dict) -> str | None:
    point = point_at(figures["fig7"], 8)
    for approach in ("TM_S", "TM_R"):
        result = point["approaches"][approach]
        if result["unsat"] != point["targets"]:
            return (f"{approach} solved {result['solved']} of "
                    f"{point['targets']} targets at sigma=8")
    return None


def claim_fig10_drift(figures: dict) -> str | None:
    figure = figures["fig10"]
    for approach in ("TM_P", "TM_G"):
        start = point_at(figure, 0)["approaches"][approach]["mean_ring_size"]
        end = point_at(figure, 20)["approaches"][approach]["mean_ring_size"]
        if end > FRESH_DRIFT * start:
            return (f"{approach} {start:.2f} at |F|=0 -> {end:.2f} at "
                    f"|F|=20, above {FRESH_DRIFT} x")
    return None


def claim_game_smallest(figures: dict) -> str | None:
    for name in ("fig5", "fig6"):
        for point in figures[name]["points"]:
            game = point["approaches"]["TM_G"]["mean_ring_size"]
            progressive = point["approaches"]["TM_P"]["mean_ring_size"]
            if game > progressive:
                return (f"{point_label(name, FIGURE_AXES[name], point)}: "
                        f"TM_G {game:.2f} > TM_P {progressive:.2f}")
    return None


def every(check, figure: str, approaches: tuple[str, ...], *args):
    def claim(figures: dict) -> str | None:
        for approach in approaches:
            problem = check(figures[figure], approach, *args)
            if problem:
                return problem
        return None
    return claim


# Section 7's shapes (EXPERIMENTS.md), each a named claim on the fresh run.
CLAIMS = (
    ("fig3: mode 2 outputs, 285 transactions, 633 tokens", claim_fig3),
    ("fig5: TM_P, TM_G non-increasing in c",
     every(monotone, "fig5", ("TM_P", "TM_G"), True, STEP_TOLERANCE)),
    ("fig6: every approach linear in ell",
     every(linear, "fig6", APPROACHES)),
    ("fig7: TM_P, TM_G non-increasing in sigma",
     every(monotone, "fig7", ("TM_P", "TM_G"), True, STEP_TOLERANCE)),
    ("fig7: TM_S, TM_R unsat on every target at sigma=8",
     claim_fig7_baselines_unsat),
    ("fig8: TM_P non-increasing in |S|",
     every(monotone, "fig8", ("TM_P",), True, 0.0)),
    ("fig8: TM_R flat in |S|", every(flat, "fig8", ("TM_R",))),
    ("fig9: TM_P, TM_G non-decreasing in |s_i|",
     every(monotone, "fig9", ("TM_P", "TM_G"), False, STEP_TOLERANCE)),
    ("fig10: TM_P, TM_G drift down in |F|", claim_fig10_drift),
    ("fig10: TM_R flat in |F|", every(flat, "fig10", ("TM_R",))),
    ("7.5: TM_G <= TM_P on the real data", claim_game_smallest),
)


def check_figures(baseline_data: dict, fresh_data: dict,
                  factor: float) -> int:
    del factor  # rings are compared exactly
    figures = fresh_data["figures"]
    for name, axis in FIGURE_AXES.items():
        for point in figures[name]["points"]:
            row = "  ".join(
                f"{a} {point['approaches'][a]['mean_ring_size']:7.2f} "
                f"({point['approaches'][a]['time_p50_us']:.0f} us)"
                for a in APPROACHES)
            print(f"{point_label(name, axis, point):<22} {row}")
    print(f"figures: {fresh_data['targets_per_point']} targets per point, "
          f"wall {fresh_data['wall_s']:.1f} s (ungated)")

    failures = compare_figures_exactly(baseline_data, fresh_data)
    for claim, check in CLAIMS:
        problem = check(figures)
        if problem:
            print(f"FAIL: claim '{claim}': {problem}", file=sys.stderr)
            failures += 1
        else:
            print(f"claim ok: {claim}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", type=pathlib.Path,
                        help="JSON emitted by this run's bench binary")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="committed baseline (default: picked by the "
                        "fresh log's bench kind)")
    parser.add_argument("--factor", type=float, default=0.8,
                        help="minimum fresh/baseline ratio")
    args = parser.parse_args()

    fresh = load(args.fresh)
    kind = fresh["bench"]
    baseline_path = args.baseline or DEFAULT_BASELINES[kind]
    baseline = load(baseline_path)
    if baseline["bench"] != kind:
        sys.exit(f"{baseline_path}: baseline is {baseline['bench']!r} but "
                 f"the fresh run is {kind!r}")

    if kind == "context_throughput":
        failures = check_context(baseline, fresh, args.factor)
    elif kind == "chain_growth":
        failures = check_chain_growth(baseline, fresh, args.factor)
    elif kind == "figures":
        failures = check_figures(baseline, fresh, args.factor)
    else:
        failures = check_serve(baseline, fresh, args.factor)

    if failures:
        print(f"bench regression check: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print("bench regression check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
