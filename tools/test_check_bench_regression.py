#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regression.py (stdlib only).

Run directly: python3 tools/test_check_bench_regression.py.  The fixtures
mirror Google Benchmark's JSON rows: iteration rows carry
`run_type: iteration`; with --benchmark_repetitions each variant also gets
`mean` / `median` / `stddev` / `cv` aggregate rows whose `name` ends in
`_<aggregate>` and whose `run_name` is the plain run name.  With
--benchmark_report_aggregates_only=true only the aggregate rows remain.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_regression as cbr  # noqa: E402

FAMILIES = {"BM_MergeParallel": "events/s", "BM_Bootstrap": "events/s"}
SUFFIX = "/process_time/real_time"


def iteration(name, value, repetition=0):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "repetition_index": repetition, "events/s": value}


def aggregate(name, kind, value):
    return {"name": f"{name}_{kind}", "run_name": name,
            "run_type": "aggregate", "aggregate_name": kind,
            "events/s": value}


def repeated(name, values, aggregates_only):
    """Rows for one variant run with len(values) repetitions."""
    rows = [] if aggregates_only else [
        iteration(name, v, i) for i, v in enumerate(values)]
    ordered = sorted(values)
    rows += [
        aggregate(name, "mean", sum(values) / len(values)),
        aggregate(name, "median", ordered[len(ordered) // 2]),
        aggregate(name, "stddev", 1.0),
        aggregate(name, "cv", 0.01),
    ]
    return rows


class Normalize(unittest.TestCase):
    def test_single_run_falls_back_to_the_run(self):
        raw = {"benchmarks": [
            iteration("BM_MergeParallel/0" + SUFFIX, 1000.0),
            iteration("BM_Bootstrap/39", 50.0),
        ]}
        out = cbr.normalize(raw, FAMILIES)
        self.assertEqual(out["BM_MergeParallel"],
                         {"BM_MergeParallel/0": 1000.0})
        self.assertEqual(out["BM_Bootstrap"], {"BM_Bootstrap/39": 50.0})

    def test_aggregates_only_gates_on_the_median(self):
        # A mean dragged down by one slow repetition must not be used.
        raw = {"benchmarks": repeated("BM_MergeParallel/2" + SUFFIX,
                                      [100.0, 900.0, 1000.0, 1100.0, 1200.0],
                                      aggregates_only=True)}
        out = cbr.normalize(raw, FAMILIES)
        self.assertEqual(out["BM_MergeParallel"],
                         {"BM_MergeParallel/2": 1000.0})

    def test_median_row_wins_over_iteration_rows(self):
        raw = {"benchmarks": repeated("BM_Bootstrap/39",
                                      [10.0, 30.0, 20.0],
                                      aggregates_only=False)}
        out = cbr.normalize(raw, FAMILIES)
        self.assertEqual(out["BM_Bootstrap"], {"BM_Bootstrap/39": 20.0})

    def test_repetitions_without_aggregates_use_their_median(self):
        raw = {"benchmarks": [
            iteration("BM_Bootstrap/39", v, i)
            for i, v in enumerate([5.0, 100.0, 7.0])]}
        out = cbr.normalize(raw, FAMILIES)
        self.assertEqual(out["BM_Bootstrap"], {"BM_Bootstrap/39": 7.0})

    def test_aggregate_without_run_name_strips_its_suffix(self):
        row = aggregate("BM_Bootstrap/39", "median", 42.0)
        del row["run_name"]
        out = cbr.normalize({"benchmarks": [row]}, FAMILIES)
        self.assertEqual(out["BM_Bootstrap"], {"BM_Bootstrap/39": 42.0})

    def test_unknown_families_and_missing_metrics_are_skipped(self):
        raw = {"benchmarks": [
            iteration("BM_Other/1", 1.0),
            {"name": "BM_Bootstrap/39", "run_type": "iteration"},
        ]}
        out = cbr.normalize(raw, FAMILIES)
        self.assertEqual(out, {"BM_MergeParallel": {}, "BM_Bootstrap": {}})


class Gate(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.baseline = self.dir / "baseline.json"
        self.baseline.write_text(json.dumps({
            "benchmark": "bench_merge_throughput",
            "threshold": 0.15,
            "families": {"BM_MergeParallel": {
                "metric": "events/s",
                "variants": {"BM_MergeParallel/0": 1000.0}}},
        }))

    def tearDown(self):
        self.tmp.cleanup()

    def run_gate(self, values, *extra):
        current = self.dir / "current.json"
        current.write_text(json.dumps({"benchmarks": repeated(
            "BM_MergeParallel/0" + SUFFIX, values, aggregates_only=True)}))
        argv = ["check_bench_regression.py", "--baseline",
                str(self.baseline), "--current", str(current), *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            return cbr.main(argv)

    def test_one_slow_repetition_does_not_fail_the_gate(self):
        self.assertEqual(self.run_gate([100.0, 950.0, 1000.0, 1010.0, 1020.0]),
                         0)

    def test_a_slow_median_fails_the_gate(self):
        self.assertEqual(self.run_gate([700.0, 750.0, 800.0, 820.0, 900.0]), 1)

    def test_update_writes_the_median(self):
        # --update needs every gated family; each gets one variant here.
        rows = []
        for family, metric in cbr.DEFAULT_FAMILIES.items():
            for row in repeated(family + "/0", [100.0, 1200.0, 1300.0,
                                                1400.0, 1500.0],
                                aggregates_only=True):
                row[metric] = row.pop("events/s")
                rows.append(row)
        current = self.dir / "current.json"
        current.write_text(json.dumps({"benchmarks": rows}))
        argv = ["check_bench_regression.py", "--baseline",
                str(self.baseline), "--current", str(current), "--update"]
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(cbr.main(argv), 0)
        written = json.loads(self.baseline.read_text())
        for family in cbr.DEFAULT_FAMILIES:
            self.assertEqual(written["families"][family]["variants"],
                             {family + "/0": 1300.0})


if __name__ == "__main__":
    unittest.main()
