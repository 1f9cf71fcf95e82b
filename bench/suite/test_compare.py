"""Unit tests for compare.py: one synthetic case per verdict."""

import io
import json
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

import compare

BENCH = {
    "workloads": [{"name": "w", "why": "synthetic"}],
    "end_to_end": [
        {"name": "events_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    ],
}
STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


class VerdictTest(unittest.TestCase):
    def test_too_few_pairs(self):
        self.assertEqual(compare.verdict(STEADY[:9], STEADY[:9], "higher", 0.1),
                         "too-few-pairs")

    def test_gain_needs_nine_of_ten_wins_beyond_parent_iqr(self):
        change = [v * 1.05 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "higher", 0.1), "gain")
        # Lower is better: a 5% faster wall time is the same gain.
        self.assertEqual(compare.verdict(STEADY, [v * 0.95 for v in STEADY],
                                         "lower", 0.1), "gain")

    def test_eight_wins_are_not_a_gain(self):
        change = [v * 1.05 for v in STEADY]
        change[0] = change[1] = 90.0
        self.assertEqual(compare.verdict(STEADY, change, "higher", 0.1),
                         "no-regression")

    def test_gap_inside_parent_iqr_is_not_a_gain(self):
        parent = [90.0, 110.0] * 5
        change = [v + 1.0 for v in parent]
        self.assertNotEqual(compare.verdict(parent, change, "higher", 0.5),
                            "gain")

    def test_regression_beyond_bound(self):
        change = [v * 0.85 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "higher", 0.1),
                         "regression")
        self.assertEqual(compare.verdict(STEADY, [v * 1.15 for v in STEADY],
                                         "lower", 0.1), "regression")

    def test_small_slowdown_within_bound(self):
        change = [v * 0.97 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "higher", 0.1),
                         "no-regression")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [80.0, 120.0, 85.0, 115.0, 90.0, 110.0, 95.0, 105.0, 100.0,
                 100.0]
        self.assertEqual(compare.verdict(noisy, list(reversed(noisy)),
                                         "higher", 0.1), "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        # Every change run beats every parent run, but the median gap (21.5)
        # stays inside the parent's IQR (22.5): no gain, yet not unresolved.
        parent = [80.0, 120.0, 85.0, 115.0, 90.0, 110.0, 95.0, 105.0, 100.0,
                  100.0]
        change = [121.0, 122.0] * 5
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         "no-regression")


def results(events, walls, failed=0):
    return {"schema": "hwbench.results/v1", "trace": 0, "workloads": {"w": {
        "attempted": 20, "failed": failed, "metrics": {
            "events_per_s": {"value": events, "unit": "1/s"},
            "wall_s": {"value": walls, "unit": "s"}}}}}


class CompareMainTest(unittest.TestCase):
    def run_main(self, parent, change):
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            (d / "bench.json").write_text(json.dumps(BENCH))
            argv = ["--benchmark", str(d / "bench.json"), "--parent"]
            for i, r in enumerate(parent):
                (d / f"p{i}.json").write_text(json.dumps(r))
                argv.append(str(d / f"p{i}.json"))
            argv.append("--change")
            for i, r in enumerate(change):
                (d / f"c{i}.json").write_text(json.dumps(r))
                argv.append(str(d / f"c{i}.json"))
            out = io.StringIO()
            with redirect_stdout(out):
                status = compare.main(argv)
            return status, out.getvalue()

    def test_one_row_per_workload_and_exit_status(self):
        parent = [results(v, 1.0 / v) for v in STEADY]
        status, out = self.run_main(parent, parent)
        self.assertEqual(status, 0)
        self.assertEqual(len(out.splitlines()), 1)
        self.assertIn("events_per_s: no-regression", out)
        self.assertIn("failures: ok", out)

        slower = [results(v * 0.8, 1.25 / v) for v in STEADY]
        status, out = self.run_main(parent, slower)
        self.assertEqual(status, 1)
        self.assertIn("wall_s: regression", out)

    def test_failures_compared_separately(self):
        parent = [results(v, 1.0 / v) for v in STEADY]
        change = [results(v, 1.0 / v, failed=1 if i == 3 else 0)
                  for i, v in enumerate(STEADY)]
        status, out = self.run_main(parent, change)
        self.assertEqual(status, 1)
        self.assertIn("events_per_s: no-regression", out)
        self.assertIn("failures: more-failures", out)


if __name__ == "__main__":
    unittest.main()
