"""Unit tests for check_perf.py's event-count gate."""

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import check_perf


def bench_report(events):
    return {"schema": check_perf.BENCH_SCHEMA, "name": "fig8",
            "events": events, "events_per_s": 1e7,
            "peak_rss_bytes": 6_000_000, "points": []}


class EventDriftTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.bench_dir = Path(tmp.name) / "bench_out"
        self.base_dir = Path(tmp.name) / "baselines"
        self.bench_dir.mkdir()
        self.base_dir.mkdir()
        self.write_baseline(2366297)

    def write_baseline(self, events):
        base = check_perf.baseline_of(bench_report(events))
        (self.base_dir / "BENCH_fig8.json").write_text(json.dumps(base))

    def run_gate(self, events, *extra):
        (self.bench_dir / "BENCH_fig8.json").write_text(
            json.dumps(bench_report(events)))
        argv = ["check_perf.py", "--bench-dir", str(self.bench_dir),
                "--baseline-dir", str(self.base_dir), *extra]
        out = io.StringIO()
        with mock.patch.object(sys, "argv", argv), redirect_stdout(out), \
                redirect_stderr(out):
            code = check_perf.main()
        return code, out.getvalue()

    def baseline_events(self):
        path = self.base_dir / "BENCH_fig8.json"
        return json.loads(path.read_text())["events"]

    def test_equal_counts_pass(self):
        code, out = self.run_gate(2366297)
        self.assertEqual(code, 0, out)
        self.assertIn("perf trajectory ok", out)

    def test_drifted_count_fails_naming_bench_and_counts(self):
        code, out = self.run_gate(2366298)
        self.assertEqual(code, 1, out)
        self.assertIn("fig8: events 2366298 != baseline 2366297", out)
        # The gate never rewrites the baseline on its own.
        self.assertEqual(self.baseline_events(), 2366297)

    def test_update_accepts_the_new_count(self):
        code, out = self.run_gate(2366298, "--update")
        self.assertEqual(code, 0, out)
        self.assertEqual(self.baseline_events(), 2366298)
        code, out = self.run_gate(2366298)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
