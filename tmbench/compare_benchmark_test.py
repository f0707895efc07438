"""Unit tests for compare_benchmark.py (run: python3 -m unittest)."""

import contextlib
import io
import json
import os
import tempfile
import unittest

import compare_benchmark as cb

LATENCY = {"name": "latency_ms", "unit": "ms", "better": "lower",
           "bound": 0.05}
RATE = {"name": "ops_per_s", "unit": "ops/s", "better": "higher",
        "bound": 0.05}
SPEC = {"workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [LATENCY, RATE], "run_seconds": 1}


def judge(parent, change, metric=LATENCY):
    return cb.verdict(parent, change, list(zip(parent, change)), metric)


def record(side, pair, latency, rate, failed=0, correct=True,
           digest="d%d"):
    return {"side": side, "pair": pair, "workload": "w", "seed": pair + 1,
            "result": {"correct": correct, "attempted": 100,
                       "failed": failed, "metrics": {
                           "latency_ms": {"value": latency, "unit": "ms"},
                           "ops_per_s": {"value": rate, "unit": "ops/s"}}},
            "digests": {"state_digest": digest % (pair + 1)}}


def runs(parent_latency, change_latency, **change_kwargs):
    out = []
    for pair, (p, c) in enumerate(zip(parent_latency, change_latency)):
        out.append(record("parent", pair, p, 1000.0 / p))
        out.append(record("change", pair, c, 1000.0 / c, **change_kwargs))
    return out


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]


class VerdictTest(unittest.TestCase):
    def test_same_numbers_are_unchanged(self):
        self.assertEqual(judge(STEADY, STEADY)["verdict"], "unchanged")

    def test_clear_win_is_improved(self):
        v = judge(STEADY, [x * 0.8 for x in STEADY])
        self.assertEqual(v["verdict"], "improved")
        self.assertEqual(v["win_rate"], 1.0)

    def test_worse_beyond_bound_is_regressed(self):
        v = judge(STEADY, [x * 1.10 for x in STEADY])
        self.assertEqual(v["verdict"], "regressed")
        self.assertAlmostEqual(v["worse_by"], 0.10, places=6)

    def test_worse_within_bound_is_unchanged(self):
        self.assertEqual(judge(STEADY, [x * 1.02 for x in STEADY])["verdict"],
                         "unchanged")

    def test_higher_is_better_direction(self):
        rates = [100.0 + 0.2 * i for i in range(10)]
        self.assertEqual(judge(rates, [r * 0.9 for r in rates], RATE)
                         ["verdict"], "regressed")
        self.assertEqual(judge(rates, [r * 1.3 for r in rates], RATE)
                         ["verdict"], "improved")

    def test_wide_spread_is_unresolved(self):
        noisy = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0, 7.0, 11.0, 10.0, 12.0]
        self.assertEqual(judge(noisy, [x * 1.01 for x in noisy])["verdict"],
                         "unresolved")

    def test_wide_spread_but_every_run_better_is_resolved(self):
        noisy = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0, 7.5, 11.0, 10.0, 12.0]
        v = judge(noisy, [x * 0.5 for x in sorted(noisy)[:10]])
        self.assertNotEqual(v["verdict"], "unresolved")

    def test_win_rate_below_nine_tenths_is_not_a_gain(self):
        change = [x * 0.9 for x in STEADY]
        change[0], change[1] = 11.0, 11.0  # two lost pairs
        v = judge(STEADY, change)
        self.assertLess(v["win_rate"], 0.9)
        self.assertEqual(v["verdict"], "unchanged")

    def test_ties_count_for_neither_side(self):
        v = judge(STEADY, list(STEADY))
        self.assertEqual(v["win_rate"], 0.0)


class ReportTest(unittest.TestCase):
    def report(self, records):
        out = io.StringIO()
        return cb.report(records, SPEC, out), out.getvalue()

    def test_identical_runs_have_no_regression(self):
        regressions, text = self.report(runs(STEADY, STEADY))
        self.assertEqual(regressions, 0)
        self.assertIn("unchanged", text)

    def test_regression_is_counted(self):
        regressions, text = self.report(
            runs(STEADY, [x * 1.2 for x in STEADY]))
        self.assertEqual(regressions, 2)  # latency up and throughput down
        self.assertIn("regressed", text)

    def test_rise_in_failed_share_is_a_regression(self):
        regressions, text = self.report(runs(STEADY, STEADY, failed=3))
        self.assertEqual(regressions, 1)
        self.assertIn("failed share rose", text)

    def test_incorrect_run_is_a_regression(self):
        regressions, text = self.report(runs(STEADY, STEADY, correct=False))
        self.assertEqual(regressions, 1)
        self.assertIn("correct == false", text)

    def test_digest_mismatch_is_a_regression(self):
        regressions, text = self.report(
            runs(STEADY, STEADY, digest="other%d"))
        self.assertEqual(regressions, len(STEADY))
        self.assertIn("seed 1 state_digest differs", text)

    def test_too_few_pairs_are_flagged(self):
        _, text = self.report(runs(STEADY[:5], STEADY[:5]))
        self.assertIn("a claim needs at least 10", text)


class CommandLineTest(unittest.TestCase):
    def run_report(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            runs_path = os.path.join(tmp, "runs.jsonl")
            spec_path = os.path.join(tmp, "BENCHMARK.json")
            with open(runs_path, "w") as f:
                f.write("\n".join(json.dumps(r) for r in records) + "\n")
            with open(spec_path, "w") as f:
                json.dump(SPEC, f)
            with contextlib.redirect_stdout(io.StringIO()):
                return cb.main(["report", runs_path, "--benchmark", spec_path])

    def test_exit_code_zero_without_regression(self):
        self.assertEqual(self.run_report(runs(STEADY, STEADY)), 0)

    def test_exit_code_one_on_regression(self):
        self.assertEqual(
            self.run_report(runs(STEADY, [x * 1.2 for x in STEADY])), 1)


if __name__ == "__main__":
    unittest.main()
