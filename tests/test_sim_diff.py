#!/usr/bin/env python3
"""Unit tests for tools/sim_diff.py, fed hand-written perfbench output.

The tool decides from perfbench/metrics.json which metrics are simulated
(exact-compared, exit 1 on any difference) and which are host-timed
(printed only).  Registered with ctest (label `unit`).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
import sim_diff  # noqa: E402


def result_line(**metrics):
    return json.dumps({"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "x"}
                                   for k, v in metrics.items()}})


def run(base_lines, change_lines):
    """Writes both outputs to temp files; returns (exit code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, lines in (("base.out", base_lines), ("change.out", change_lines)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            paths.append(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = sim_diff.main(paths)
        return code, out.getvalue()


class SimDiffTest(unittest.TestCase):
    def test_identical_simulated_metrics_pass(self):
        line = result_line(sim_wall_s=56.25, overhead_frac=0.003, epoch_ms_p50=13.5)
        code, out = run(["# progress", line], ["# progress", line])
        self.assertEqual(code, 0)
        self.assertIn("0 differ", out)

    def test_host_metrics_are_shown_but_never_fail(self):
        code, out = run([result_line(map_error=0.26, epoch_ms_p50=13.5,
                                     peak_rss_mb=38.7)],
                        [result_line(map_error=0.26, epoch_ms_p50=19.0,
                                     peak_rss_mb=41.0)])
        self.assertEqual(code, 0)
        self.assertIn("epoch_ms_p50: 13.5 -> 19.0", out)
        self.assertIn("peak_rss_mb: 38.7 -> 41.0", out)

    def test_any_simulated_difference_fails(self):
        code, out = run([result_line(map_error=0.26, sim_wall_s=56.25)],
                        [result_line(map_error=0.26000000000000001, sim_wall_s=56.5)])
        self.assertEqual(code, 1)
        self.assertIn("DIFF sim_wall_s: 56.25 -> 56.5", out)
        self.assertNotIn("DIFF map_error", out)  # same float, different spelling

    def test_per_layer_kinds_come_from_the_spec(self):
        # governor.resample_epoch_ms_p50 is a host per-layer metric;
        # governor.resampled_objects a simulated one.
        base = result_line(**{"governor.resample_epoch_ms_p50": 7.7,
                              "governor.resampled_objects": 1200})
        change = result_line(**{"governor.resample_epoch_ms_p50": 2.1,
                                "governor.resampled_objects": 1201})
        code, out = run([base], [change])
        self.assertEqual(code, 1)
        self.assertIn("DIFF governor.resampled_objects: 1200 -> 1201", out)
        self.assertNotIn("DIFF governor.resample_epoch_ms_p50", out)

    def test_metric_missing_on_one_side_fails(self):
        code, out = run([result_line(map_error=0.1, within_budget_frac=0.9)],
                        [result_line(map_error=0.1)])
        self.assertEqual(code, 1)
        self.assertIn("DIFF within_budget_frac: 0.9 -> -", out)

    def test_last_json_line_is_the_result(self):
        stale = result_line(sim_wall_s=1.0)
        code, _ = run([stale, result_line(sim_wall_s=2.0)], [result_line(sim_wall_s=2.0)])
        self.assertEqual(code, 0)

    def test_output_without_a_result_is_an_error(self):
        code, _ = run(["perfbench: build failed"], [result_line(sim_wall_s=2.0)])
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
