#!/usr/bin/env python3
"""Unit tests for tools/bench/check_bench_regression.py.

The checker is the only thing standing between a perf regression and a
green CI run, so its gates get the same bad/good treatment as the
analyzers: every hard-fail path is pinned (a regression that stops a
gate from firing fails here), and every pass path is pinned too (a gate
that over-fires would block unrelated PRs).

Runs the checker as a subprocess — the same way ctest and CI invoke
it — against synthetic fresh/baseline JSON pairs in a temp dir.
"""

from __future__ import annotations

import copy
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
CHECKER = ROOT / "tools" / "bench" / "check_bench_regression.py"

CONTEXT_BASE = {
    "bench": "context_throughput",
    "scales": [
        {"num_rs": 1000, "speedup": 4.0, "context_build_ms": 5.0,
         "phases": [{"name": "related_set", "queries": 64,
                     "reintern_ms": 350.0, "context_ms": 0.125,
                     "speedup": 2800.0},
                    {"name": "selection_round", "queries": 16,
                     "reintern_ms": 160.0, "context_ms": 80.0,
                     "speedup": 2.0}]},
        {"num_rs": 10000, "speedup": 6.0, "context_build_ms": 50.0,
         "phases": []},
    ],
}

CHAIN_BASE = {
    "bench": "chain_growth",
    "smoke": False,
    "checkpoints": [
        {"tokens": 1000, "rs": 500, "mean_append_ms": 0.02,
         "append_window_blocks": 50, "full_build_ms": 1.0},
        {"tokens": 10000, "rs": 5000, "mean_append_ms": 0.025,
         "append_window_blocks": 50, "full_build_ms": 12.0},
    ],
    "token_growth_ratio": 10.0,
    "append_growth_ratio": 1.25,
    "build_growth_ratio": 12.0,
}

SERVE_BASE = {
    "bench": "serve",
    "issued": 1000,
    "resolved": 1000,
    "crashes": 0,
    "faults_injected": 40,
    "ok_fraction": 0.95,
    "throughput_rps": 800.0,
    "latency_micros": {"p50": 900, "p99": 4000, "p999": 9000},
}


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.tmp = pathlib.Path(self._tmp.name)

    def write(self, name: str, data: dict) -> pathlib.Path:
        path = self.tmp / name
        path.write_text(json.dumps(data))
        return path

    def run_checker(self, fresh: dict, baseline: dict | None = None,
                    factor: float | None = None, use_default_baseline=False):
        cmd = [sys.executable, str(CHECKER),
               str(self.write("fresh.json", fresh))]
        if not use_default_baseline:
            base = baseline if baseline is not None else fresh
            cmd += ["--baseline", str(self.write("baseline.json", base))]
        if factor is not None:
            cmd += ["--factor", str(factor)]
        return subprocess.run(cmd, capture_output=True, text=True)

    def assert_ok(self, proc):
        self.assertEqual(proc.returncode, 0,
                         f"expected OK:\n{proc.stdout}\n{proc.stderr}")
        self.assertIn("bench regression check: OK", proc.stdout)

    def assert_fail(self, proc, needle: str):
        self.assertEqual(proc.returncode, 1,
                         f"expected failure:\n{proc.stdout}\n{proc.stderr}")
        self.assertIn(needle, proc.stderr)


class ContextGateTest(CheckerTest):
    def test_identical_run_passes(self):
        self.assert_ok(self.run_checker(copy.deepcopy(CONTEXT_BASE)))

    def test_prints_absolute_context_ms(self):
        proc = self.run_checker(copy.deepcopy(CONTEXT_BASE))
        self.assert_ok(proc)
        self.assertIn("related_set      2800.00x  context 0.125 ms",
                      proc.stdout)
        self.assertIn("selection_round  2.00x  context 80.000 ms",
                      proc.stdout)

    def test_speedup_below_one_fails(self):
        fresh = copy.deepcopy(CONTEXT_BASE)
        fresh["scales"][0]["speedup"] = 0.9
        proc = self.run_checker(fresh, baseline=CONTEXT_BASE)
        self.assert_fail(proc, "slower than re-interning")

    def test_regression_past_factor_fails(self):
        fresh = copy.deepcopy(CONTEXT_BASE)
        fresh["scales"][1]["speedup"] = 3.0  # 0.5 of the 6.0x baseline
        proc = self.run_checker(fresh, baseline=CONTEXT_BASE, factor=0.8)
        self.assert_fail(proc, "regressed to 0.50")

    def test_small_wobble_within_factor_passes(self):
        fresh = copy.deepcopy(CONTEXT_BASE)
        fresh["scales"][1]["speedup"] = 5.5
        self.assert_ok(self.run_checker(fresh, baseline=CONTEXT_BASE))

    def test_missing_scale_fails(self):
        fresh = copy.deepcopy(CONTEXT_BASE)
        del fresh["scales"][1]
        proc = self.run_checker(fresh, baseline=CONTEXT_BASE)
        self.assert_fail(proc, "missing the 10000-RS scale")


class ChainGrowthGateTest(CheckerTest):
    def test_flat_append_passes(self):
        self.assert_ok(self.run_checker(copy.deepcopy(CHAIN_BASE)))

    def test_superlinear_append_fails(self):
        fresh = copy.deepcopy(CHAIN_BASE)
        fresh["append_growth_ratio"] = 6.0  # >= 10.0 * 0.5 ceiling
        proc = self.run_checker(fresh, baseline=CHAIN_BASE)
        self.assert_fail(proc, "no longer O(delta)")

    def test_append_not_below_rebuild_fails(self):
        fresh = copy.deepcopy(CHAIN_BASE)
        fresh["append_growth_ratio"] = 3.0
        fresh["build_growth_ratio"] = 2.5
        proc = self.run_checker(fresh, baseline=CHAIN_BASE)
        self.assert_fail(proc, "not below full-rebuild growth")

    def test_erosion_past_relative_ceiling_fails(self):
        fresh = copy.deepcopy(CHAIN_BASE)
        fresh["append_growth_ratio"] = 2.1  # > max(2.0, 1.25/0.8)
        proc = self.run_checker(fresh, baseline=CHAIN_BASE, factor=0.8)
        self.assert_fail(proc, "exceeds")

    def test_absolute_allowance_tolerates_noisy_near_flat(self):
        fresh = copy.deepcopy(CHAIN_BASE)
        fresh["append_growth_ratio"] = 1.9  # < 2.0 allowance
        self.assert_ok(self.run_checker(fresh, baseline=CHAIN_BASE))

    def test_smoke_run_skips_ratio_gates(self):
        fresh = copy.deepcopy(CHAIN_BASE)
        fresh["smoke"] = True
        fresh["append_growth_ratio"] = 9.0  # would trip every hard gate
        proc = self.run_checker(fresh, baseline=CHAIN_BASE)
        self.assert_ok(proc)
        self.assertIn("ratio gates skipped", proc.stdout)

    def test_single_checkpoint_fails_even_in_smoke(self):
        fresh = copy.deepcopy(CHAIN_BASE)
        fresh["smoke"] = True
        del fresh["checkpoints"][1]
        proc = self.run_checker(fresh, baseline=CHAIN_BASE)
        self.assert_fail(proc, "fewer than two checkpoints")


class ServeGateTest(CheckerTest):
    def test_clean_soak_passes(self):
        self.assert_ok(self.run_checker(copy.deepcopy(SERVE_BASE)))

    def test_unresolved_request_fails(self):
        fresh = copy.deepcopy(SERVE_BASE)
        fresh["resolved"] = 999
        proc = self.run_checker(fresh, baseline=SERVE_BASE)
        self.assert_fail(proc, "never resolved")

    def test_crash_fails(self):
        fresh = copy.deepcopy(SERVE_BASE)
        fresh["crashes"] = 1
        proc = self.run_checker(fresh, baseline=SERVE_BASE)
        self.assert_fail(proc, "crash(es)")

    def test_empty_run_fails(self):
        fresh = copy.deepcopy(SERVE_BASE)
        fresh["issued"] = fresh["resolved"] = 0
        proc = self.run_checker(fresh, baseline=SERVE_BASE)
        self.assert_fail(proc, "issued no requests")

    def test_ok_fraction_below_floor_fails(self):
        fresh = copy.deepcopy(SERVE_BASE)
        fresh["ok_fraction"] = 0.70  # floor is 0.95 * 0.8 = 0.76
        proc = self.run_checker(fresh, baseline=SERVE_BASE, factor=0.8)
        self.assert_fail(proc, "fell below")

    def test_degraded_but_above_floor_passes(self):
        fresh = copy.deepcopy(SERVE_BASE)
        fresh["ok_fraction"] = 0.80
        self.assert_ok(self.run_checker(fresh, baseline=SERVE_BASE,
                                        factor=0.8))


def figures_base() -> dict:
    return json.loads((ROOT / "BENCH_figures.json").read_text())


def result(data: dict, figure: str, x: float, approach: str) -> dict:
    points = data["figures"][figure]["points"]
    return next(p for p in points if p["x"] == x)["approaches"][approach]


def set_size(data: dict, figure: str, x: float, approach: str,
             size: float) -> None:
    result(data, figure, x, approach)["mean_ring_size"] = size


def size_of(data: dict, figure: str, x: float, approach: str) -> float:
    return result(data, figure, x, approach)["mean_ring_size"]


def rising_fig5_progressive(data: dict) -> None:
    set_size(data, "fig5", 0.8, "TM_P",
             size_of(data, "fig5", 0.6, "TM_P") * 1.02)


def rising_fig7_game(data: dict) -> None:
    set_size(data, "fig7", 16, "TM_G", size_of(data, "fig7", 14, "TM_G") + 5)


def baseline_solving_at_sigma8(data: dict) -> None:
    random = result(data, "fig7", 8, "TM_R")
    random["solved"], random["unsat"] = 1, random["unsat"] - 1


def nonlinear_fig6(data: dict) -> None:
    set_size(data, "fig6", 60, "TM_S", 150.0)


def fig8_progressive_rising(data: dict) -> None:
    set_size(data, "fig8", 90, "TM_P", size_of(data, "fig8", 70, "TM_P") + 0.1)


def fig8_random_outside_band(data: dict) -> None:
    low = min(p["approaches"]["TM_R"]["mean_ring_size"]
              for p in data["figures"]["fig8"]["points"])
    set_size(data, "fig8", 90, "TM_R", low * 1.2)


def falling_fig9_progressive(data: dict) -> None:
    set_size(data, "fig9", 30, "TM_P", size_of(data, "fig9", 25, "TM_P") * 0.98)


def fig10_no_drift(data: dict) -> None:
    set_size(data, "fig10", 20, "TM_G", size_of(data, "fig10", 0, "TM_G"))


def fig10_random_outside_band(data: dict) -> None:
    set_size(data, "fig10", 0, "TM_R", size_of(data, "fig10", 5, "TM_R") * 1.3)


def fig3_mode_three(data: dict) -> None:
    data["figures"]["fig3"]["mode"] = 3


def game_above_progressive(data: dict) -> None:
    set_size(data, "fig5", 0.4, "TM_G", size_of(data, "fig5", 0.4, "TM_P") + 1)


class FiguresGateTest(CheckerTest):
    def test_identical_run_passes(self):
        proc = self.run_checker(figures_base())
        self.assert_ok(proc)
        self.assertIn("claim ok: 7.5: TM_G <= TM_P on the real data",
                      proc.stdout)

    def test_changed_ring_digest_fails_and_names_point(self):
        fresh = figures_base()
        result(fresh, "fig8", 50, "TM_S")["ring_digest"] = "0" * 64
        proc = self.run_checker(fresh, baseline=figures_base())
        self.assert_fail(proc, "fig8 super_rs=50 TM_S: ring_digest")

    def test_changed_ring_members_total_fails_and_names_point(self):
        fresh = figures_base()
        result(fresh, "fig5", 0.6, "TM_P")["ring_members_total"] += 1
        proc = self.run_checker(fresh, baseline=figures_base())
        self.assert_fail(proc, "fig5 c=0.6 TM_P: ring_members_total")

    def test_changed_figure3_counts_fail(self):
        fresh = figures_base()
        fresh["figures"]["fig3"]["outputs"]["3"] += 1
        proc = self.run_checker(fresh, baseline=figures_base())
        self.assert_fail(proc, "fig3 outputs")

    def test_each_broken_claim_fails_by_name(self):
        # The fresh run is its own baseline, so only the claim can fail.
        cases = (
            (rising_fig5_progressive, "fig5: TM_P, TM_G non-increasing"),
            (nonlinear_fig6, "fig6: every approach linear in ell"),
            (rising_fig7_game, "fig7: TM_P, TM_G non-increasing"),
            (baseline_solving_at_sigma8, "fig7: TM_S, TM_R unsat"),
            (fig8_progressive_rising, "fig8: TM_P non-increasing"),
            (fig8_random_outside_band, "fig8: TM_R flat"),
            (falling_fig9_progressive, "fig9: TM_P, TM_G non-decreasing"),
            (fig10_no_drift, "fig10: TM_P, TM_G drift down"),
            (fig10_random_outside_band, "fig10: TM_R flat"),
            (fig3_mode_three, "fig3: mode 2 outputs"),
            (game_above_progressive, "7.5: TM_G <= TM_P"),
        )
        for mutate, claim in cases:
            with self.subTest(claim=claim):
                fresh = figures_base()
                mutate(fresh)
                proc = self.run_checker(fresh)
                self.assert_fail(proc, f"claim '{claim}")
                self.assertIn("1 failure(s)", proc.stderr)

    def test_step_within_tolerance_passes(self):
        fresh = figures_base()
        set_size(fresh, "fig5", 0.8, "TM_P",
                 size_of(fresh, "fig5", 0.6, "TM_P") * 1.005)
        self.assert_ok(self.run_checker(fresh))

    def test_unknown_figure_rejected(self):
        fresh = figures_base()
        fresh["figures"]["fig11"] = fresh["figures"]["fig10"]
        proc = self.run_checker(fresh)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("unknown figure 'fig11'", proc.stderr)

    def test_unknown_approach_rejected(self):
        fresh = figures_base()
        approaches = fresh["figures"]["fig6"]["points"][0]["approaches"]
        approaches["TM_X"] = approaches.pop("TM_R")
        proc = self.run_checker(fresh)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("unknown or missing approach", proc.stderr)


class DispatchTest(CheckerTest):
    def test_unknown_bench_kind_rejected(self):
        proc = self.run_checker({"bench": "nonsense"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("unknown bench kind", proc.stderr)

    def test_kind_mismatch_rejected(self):
        proc = self.run_checker(copy.deepcopy(SERVE_BASE),
                                baseline=copy.deepcopy(CHAIN_BASE))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("baseline is", proc.stderr)

    def test_default_baseline_dispatches_on_kind(self):
        # A committed baseline compared against itself must pass: this
        # exercises the kind -> repo-root BENCH_*.json dispatch for real.
        for name in ("BENCH_context.json", "BENCH_chain_growth.json",
                     "BENCH_serve.json", "BENCH_figures.json"):
            with self.subTest(baseline=name):
                fresh = json.loads((ROOT / name).read_text())
                proc = self.run_checker(fresh, use_default_baseline=True)
                self.assert_ok(proc)


if __name__ == "__main__":
    unittest.main()
