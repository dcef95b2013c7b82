#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py (ctest label: bench).

Covers the satellite cases: missing baseline (ok), improvement (ok),
regression beyond tolerance (fail), the same-job parent/change gate (IQR
noise band floored at the tolerance), schema validation of both bench file
shapes, and the validator subset itself.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THROUGHPUT_SCHEMA = os.path.join(REPO, "scripts", "bench_throughput.schema.json")
LATENCY_SCHEMA = os.path.join(REPO, "scripts", "bench_latency.schema.json")
FRONTIER_SCHEMA = os.path.join(REPO, "scripts", "bench_frontier.schema.json")


def throughput_report(ops_per_sec):
    return {
        "schema": "spe.bench.throughput.v2",
        "source": "throughput_service",
        "git_sha": "abc1234",
        "config": "4w/8s window=256 workload=bzip2",
        "ops": 20000,
        "ops_per_sec": ops_per_sec,
        "bytes_per_cycle": 0.0005,
        "p50_us": 100.0,
        "p95_us": 200.0,
        "p99_us": 400.0,
    }


def latency_report():
    return {
        "schema": "spe.bench.latency.v2",
        "source": "throughput_service",
        "git_sha": "abc1234",
        "config": "4w/8s window=256 workload=bzip2 block_bytes=64",
        "rows": [
            {"batch": 1, "ops_per_sec": 10000.0, "p50_us": 80.0,
             "p95_us": 200.0, "p99_us": 500.0},
            {"batch": 8, "ops_per_sec": 20000.0, "p50_us": 40.0,
             "p95_us": 100.0, "p99_us": 300.0},
        ],
    }


def frontier_report(include_timing=True):
    row = {
        "rows": 64, "cols": 64, "security_s": 256,
        "feasible": True, "optimal": False, "status": "feasible",
        "backend": "lp", "poes": 546, "total_coverage": 5738,
        "overlapped_cells": 1642, "uncovered_cells": 0,
        "best_bound": 0.0, "has_bound": False,
    }
    if include_timing:
        row["elapsed_ms"] = 23.3
    return {
        "schema": "spe.bench.frontier.v1",
        "source": "placement_frontier",
        "git_sha": "abc1234",
        "config": "sizes=8,16,32,64 security=cells/16 seed=335597 time_limit_ms=0",
        "rows": [row],
    }


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        return path

    def run_compare(self, current, baseline=None, extra=None):
        argv = ["--current", current, "--schema", THROUGHPUT_SCHEMA]
        if baseline is not None:
            argv += ["--baseline", baseline]
        argv += extra or []
        return bench_compare.main(argv)

    # --- comparison outcomes -------------------------------------------------

    def test_missing_baseline_is_ok(self):
        current = self.write("current.json", throughput_report(9000.0))
        missing = os.path.join(self.tmp.name, "nope.json")
        self.assertEqual(self.run_compare(current, missing), 0)

    def test_improvement_passes(self):
        current = self.write("current.json", throughput_report(12000.0))
        baseline = self.write("baseline.json", throughput_report(10000.0))
        self.assertEqual(self.run_compare(current, baseline), 0)

    def test_small_regression_within_tolerance_passes(self):
        current = self.write("current.json", throughput_report(9500.0))
        baseline = self.write("baseline.json", throughput_report(10000.0))
        self.assertEqual(self.run_compare(current, baseline), 0)

    def test_regression_beyond_tolerance_fails(self):
        current = self.write("current.json", throughput_report(8000.0))
        baseline = self.write("baseline.json", throughput_report(10000.0))
        self.assertEqual(self.run_compare(current, baseline), 1)

    def test_tolerance_flag_overrides_default(self):
        current = self.write("current.json", throughput_report(8000.0))
        baseline = self.write("baseline.json", throughput_report(10000.0))
        self.assertEqual(
            self.run_compare(current, baseline, extra=["--tolerance", "25"]), 0)

    def test_malformed_baseline_skips_comparison(self):
        current = self.write("current.json", throughput_report(100.0))
        baseline = self.write("baseline.json", {"schema": "nope"})
        self.assertEqual(self.run_compare(current, baseline), 0)

    # --- same-job parent/change gate ------------------------------------------

    def run_paired(self, parent, change, tolerance="2"):
        argv = ["--schema", THROUGHPUT_SCHEMA, "--tolerance", tolerance,
                "--baseline-runs"]
        argv += [self.write("parent-%d.json" % i, throughput_report(v))
                 for i, v in enumerate(parent)]
        argv += ["--current-runs"]
        argv += [self.write("change-%d.json" % i, throughput_report(v))
                 for i, v in enumerate(change)]
        return bench_compare.main(argv)

    def test_paired_quiet_parent_keeps_the_tolerance_floor(self):
        parent = [10000.0, 10010.0, 9990.0, 10005.0, 9995.0]  # IQR 0.1%
        self.assertEqual(self.run_paired(parent, [9850.0] * 5), 0)   # -1.5%
        self.assertEqual(self.run_paired(parent, [9700.0] * 5), 1)   # -3%

    def test_paired_noisy_parent_widens_the_band_to_its_iqr(self):
        parent = [9000.0, 9500.0, 10000.0, 10500.0, 11000.0]  # IQR 10%
        self.assertEqual(self.run_paired(parent, [9200.0] * 5), 0)   # -8%
        self.assertEqual(self.run_paired(parent, [8800.0] * 5), 1)   # -12%

    def test_paired_compares_medians_not_single_runs(self):
        parent = [10000.0] * 5
        change = [5000.0, 10000.0, 10000.0, 10000.0, 20000.0]
        self.assertEqual(self.run_paired(parent, change), 0)

    def test_paired_needs_five_runs_each(self):
        with self.assertRaises(SystemExit):
            self.run_paired([10000.0] * 4, [10000.0] * 5)

    def test_paired_rejects_an_invalid_run(self):
        argv = ["--schema", THROUGHPUT_SCHEMA, "--baseline-runs"]
        argv += [self.write("p%d.json" % i, throughput_report(1e4)) for i in range(5)]
        argv += ["--current-runs"]
        argv += [self.write("c%d.json" % i, throughput_report(1e4)) for i in range(4)]
        argv += [self.write("c4.json", {"schema": "nope"})]
        self.assertEqual(bench_compare.main(argv), 1)

    # --- schema validation ---------------------------------------------------

    def test_validate_only_accepts_good_throughput(self):
        current = self.write("current.json", throughput_report(9000.0))
        self.assertEqual(self.run_compare(current, extra=["--validate-only"]), 0)

    def test_validate_only_rejects_missing_key(self):
        report = throughput_report(9000.0)
        del report["git_sha"]
        current = self.write("current.json", report)
        self.assertEqual(self.run_compare(current, extra=["--validate-only"]), 1)

    def test_validate_only_rejects_wrong_schema_tag(self):
        report = throughput_report(9000.0)
        report["schema"] = "spe.bench.throughput.v1"
        current = self.write("current.json", report)
        self.assertEqual(self.run_compare(current, extra=["--validate-only"]), 1)

    def test_validate_only_rejects_unknown_source(self):
        report = throughput_report(9000.0)
        report["source"] = "throughput_service 4w/8s"  # the pre-unification bug
        current = self.write("current.json", report)
        self.assertEqual(self.run_compare(current, extra=["--validate-only"]), 1)

    def test_validate_only_rejects_extra_key(self):
        report = throughput_report(9000.0)
        report["surprise"] = 1
        current = self.write("current.json", report)
        self.assertEqual(self.run_compare(current, extra=["--validate-only"]), 1)

    def test_latency_schema_accepts_good_report(self):
        current = self.write("latency.json", latency_report())
        argv = ["--current", current, "--schema", LATENCY_SCHEMA, "--validate-only"]
        self.assertEqual(bench_compare.main(argv), 0)

    def test_latency_schema_rejects_bad_row(self):
        report = latency_report()
        report["rows"][1]["batch"] = 0  # below minimum 1
        current = self.write("latency.json", report)
        argv = ["--current", current, "--schema", LATENCY_SCHEMA, "--validate-only"]
        self.assertEqual(bench_compare.main(argv), 1)

    def test_frontier_schema_accepts_good_report(self):
        current = self.write("frontier.json", frontier_report())
        argv = ["--current", current, "--schema", FRONTIER_SCHEMA, "--validate-only"]
        self.assertEqual(bench_compare.main(argv), 0)

    def test_frontier_schema_accepts_timing_free_golden_shape(self):
        # The golden regression copy omits elapsed_ms (machine-dependent).
        current = self.write("frontier.json", frontier_report(include_timing=False))
        argv = ["--current", current, "--schema", FRONTIER_SCHEMA, "--validate-only"]
        self.assertEqual(bench_compare.main(argv), 0)

    def test_frontier_schema_rejects_unknown_backend(self):
        report = frontier_report()
        report["rows"][0]["backend"] = "cplex"
        current = self.write("frontier.json", report)
        argv = ["--current", current, "--schema", FRONTIER_SCHEMA, "--validate-only"]
        self.assertEqual(bench_compare.main(argv), 1)

    def test_frontier_schema_rejects_bad_status(self):
        report = frontier_report()
        report["rows"][0]["status"] = "solved"
        current = self.write("frontier.json", report)
        argv = ["--current", current, "--schema", FRONTIER_SCHEMA, "--validate-only"]
        self.assertEqual(bench_compare.main(argv), 1)

    def test_frontier_schema_rejects_extra_row_key(self):
        report = frontier_report()
        report["rows"][0]["surprise"] = 1
        current = self.write("frontier.json", report)
        argv = ["--current", current, "--schema", FRONTIER_SCHEMA, "--validate-only"]
        self.assertEqual(bench_compare.main(argv), 1)

    def test_checked_in_golden_frontier_validates(self):
        path = os.path.join(REPO, "tests", "ilp", "golden_frontier.json")
        self.assertTrue(os.path.exists(path), path)
        argv = ["--current", path, "--schema", FRONTIER_SCHEMA, "--validate-only"]
        self.assertEqual(bench_compare.main(argv), 0)

    def test_checked_in_baselines_validate(self):
        for path, schema in ((os.path.join(REPO, "BENCH_throughput.json"),
                              THROUGHPUT_SCHEMA),
                             (os.path.join(REPO, "BENCH_latency.json"),
                              LATENCY_SCHEMA)):
            self.assertTrue(os.path.exists(path), path)
            argv = ["--current", path, "--schema", schema, "--validate-only"]
            self.assertEqual(bench_compare.main(argv), 0, path)

    # --- validator subset ----------------------------------------------------

    def test_validator_rejects_bool_as_number(self):
        errs = bench_compare.validate(True, {"type": "number"})
        self.assertTrue(errs)

    def test_validator_rejects_unknown_keyword(self):
        errs = bench_compare.validate({}, {"type": "object", "patternProperties": {}})
        self.assertTrue(errs)

    def test_validator_checks_nested_items(self):
        schema = {"type": "array", "items": {"type": "integer", "minimum": 2}}
        self.assertEqual(bench_compare.validate([2, 3], schema), [])
        self.assertTrue(bench_compare.validate([2, 1], schema))
        self.assertTrue(bench_compare.validate([2, "x"], schema))


if __name__ == "__main__":
    unittest.main()
