"""Self-test of the benchmark regression gate.

Run from the repo root::

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

from __future__ import annotations

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_gate  # noqa: E402


def report(**headlines: dict) -> dict:
    """A schema-v2 report holding the given headline declarations."""
    return {
        "bench": "unit",
        "schema_version": 2,
        "mode": "quick",
        "machine": {"nproc": 2, "profile": "release"},
        "params": {"seed": 1},
        "headlines": headlines,
        "results": [{"metric": "m", "value": 1}],
    }


def head(value, better="lower", tolerance=0.5, unit="ns") -> dict:
    return {"value": value, "unit": unit, "better": better,
            "tolerance": tolerance}


def verdicts(current: dict, baseline: dict | None) -> tuple[dict, int]:
    rows, failures = bench_gate.gate(current, baseline)
    return {row[0]: row[-1] for row in rows}, failures


class GateTest(unittest.TestCase):
    def test_within_tolerance_passes_both_directions(self):
        base = report(h_ns=head(100), h_x=head(10, "higher"))
        cur = report(h_ns=head(149), h_x=head(5.1, "higher"))
        v, failures = verdicts(cur, base)
        self.assertEqual(failures, 0)
        self.assertEqual(v, {"h_ns": "PASS", "h_x": "PASS"})

    def test_regression_beyond_tolerance_fails_lower_is_better(self):
        v, failures = verdicts(report(h=head(151)), report(h=head(100)))
        self.assertEqual((v["h"], failures), ("FAIL", 1))

    def test_regression_beyond_tolerance_fails_higher_is_better(self):
        v, failures = verdicts(report(h=head(4.9, "higher")),
                               report(h=head(10, "higher")))
        self.assertEqual((v["h"], failures), ("FAIL", 1))

    def test_exact_tolerance_fails_on_any_worsening(self):
        base = report(lo=head(5, tolerance=0.0),
                      hi=head(1000, "higher", tolerance=0.0))
        v, failures = verdicts(report(lo=head(6, tolerance=0.0),
                                      hi=head(999, "higher", tolerance=0.0)),
                               base)
        self.assertEqual((v, failures), ({"lo": "FAIL", "hi": "FAIL"}, 2))
        v, failures = verdicts(copy.deepcopy(base), base)
        self.assertEqual(failures, 0)

    def test_zero_lower_is_better_baseline_fails_on_any_increase(self):
        base = report(h=head(0, tolerance=5.0))
        self.assertEqual(verdicts(report(h=head(1)), base)[1], 1)
        self.assertEqual(verdicts(report(h=head(0)), base)[1], 0)

    def test_missing_baseline_headline_fails(self):
        base = report(a=head(1), b=head(2))
        v, failures = verdicts(report(a=head(1)), base)
        self.assertEqual((v["b"], failures), ("MISSING", 1))

    def test_headline_without_direction_fails(self):
        undeclared = {"value": 1, "unit": "ns", "tolerance": 0.5}
        # In the baseline...
        v, failures = verdicts(report(h=head(1)), report(h=undeclared))
        self.assertEqual(failures, 1)
        self.assertTrue(v["h"].startswith("FAIL"))
        # ...in the fresh file...
        _, failures = verdicts(report(h=undeclared), report(h=head(1)))
        self.assertEqual(failures, 1)
        # ...and in a new bench with no baseline at all.
        _, failures = verdicts(report(h=dict(undeclared, better="sideways")),
                               None)
        self.assertEqual(failures, 1)

    def test_fresh_file_cannot_loosen_its_own_tolerance(self):
        base = report(h=head(100, tolerance=0.0))
        v, failures = verdicts(report(h=head(101, tolerance=5.0)), base)
        self.assertEqual((v["h"], failures), ("FAIL", 1))

    def test_fresh_file_cannot_flip_its_own_direction(self):
        base = report(h=head(100, "lower", tolerance=0.0))
        _, failures = verdicts(report(h=head(101, "higher")), base)
        self.assertEqual(failures, 1)

    def test_layout_check_accepts_v2_and_rejects_v1(self):
        self.assertEqual(bench_gate.layout_errors(report(h=head(1)), "unit"),
                         [])
        v1 = {"bench": "unit", "schema_version": 1, "headline_x_ns": 3,
              "results": []}
        self.assertTrue(bench_gate.layout_errors(v1, "unit"))
        self.assertTrue(bench_gate.layout_errors(report(h=head(1)), "other"))
        _, failures = verdicts(report(h=head(1)), v1)
        self.assertEqual(failures, 1)


if __name__ == "__main__":
    unittest.main()
