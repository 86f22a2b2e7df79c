"""Checks BENCHMARK.json and the command line of perfbench/run.py.

    python3 -m unittest discover -s perfbench/tests
"""
import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# The gated workloads; run.py also accepts mc_short_probes (see README.md).
WORKLOADS = {"mc_dense_threshold", "sketch_solve", "sosed_stream"}
# The end-to-end metrics every workload reports (see README.md for how the
# sosed-specific metric names map onto them).
END_TO_END = {"wall_s", "setup_s", "peak_rss_mb", "work_per_s", "op_p1_ms"}
PER_LAYER = {
    "ose.search.calls", "ose.search.busy_s", "ose.search.probes",
    "ose.estimate.calls", "ose.estimate.busy_s", "ose.estimate.p50_ms", "ose.estimate.p90_ms",
    "ose.trial.calls", "ose.trial.busy_s", "ose.trial.quarantined", "ose.trial.useful_ratio",
    "ose.runner.idle_s", "ose.runner.utilization",
    "ose.distortion.calls", "ose.distortion.busy_s", "ose.distortion.self_s",
    "sketch.create.calls", "sketch.create.busy_s",
    "sketch.column_draw.calls", "sketch.column_draw.entries", "sketch.column_draw.busy_s",
    "sketch.apply_dense.calls", "sketch.apply_dense.busy_s",
    "sketch.apply_vector.calls", "sketch.apply_vector.busy_s",
    "hardinstance.sample.calls", "hardinstance.sample.busy_s", "hardinstance.useful_ratio",
    "core.eigensolve.calls", "core.eigensolve.busy_s",
    "apps.solve.calls", "apps.solve.busy_s", "apps.solve.self_s", "apps.residual.busy_s",
    "workload.generate.busy_s",
    "sosed.update.calls", "sosed.update.busy_s", "sosed.update.server_s", "sosed.update.wait_s",
    "sosed.query.calls", "sosed.query.busy_s", "sosed.query.server_s",
    "sosed.query.p50_ms", "sosed.query.tail_ms",
    "sosed.busy_replies", "sosed.backpressure.pauses",
    "trace.wall_s", "trace.overhead_s", "trace.replay_s",
}


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.doc = json.load(f)

    def test_top_level_keys(self):
        self.assertEqual(set(self.doc), {"command", "paths", "run_seconds", "workloads",
                                         "end_to_end", "per_layer"})
        self.assertEqual(self.doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.doc["paths"], ["perfbench"])
        self.assertIsInstance(self.doc["run_seconds"], int)
        self.assertTrue(1 <= self.doc["run_seconds"] <= 60)

    def test_workloads(self):
        names = [w["name"] for w in self.doc["workloads"]]
        self.assertEqual(set(names), WORKLOADS)
        self.assertEqual(set(run.WORKLOADS) - set(names), {"mc_short_probes"})
        for w in self.doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        e2e = {m["name"]: m for m in self.doc["end_to_end"]}
        per = {m["name"]: m for m in self.doc["per_layer"]}
        self.assertEqual(set(e2e), END_TO_END)
        self.assertEqual(set(per), PER_LAYER)
        self.assertEqual(len(e2e) + len(per), len(self.doc["end_to_end"]) +
                         len(self.doc["per_layer"]))
        self.assertFalse(set(e2e) & set(per))
        for m in self.doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.doc["end_to_end"] + self.doc["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))


class BandCheckTest(unittest.TestCase):
    BANDS = {"w": {"mean_log_ratio_limit": 0.1,
                   "rows": {"a": {"ref": 100.0, "lo": 50, "hi": 200},
                            "b": {"ref": 1000.0, "lo": 500, "hi": 2000}}}}

    def test_in_band_unbiased_run_passes(self):
        rows = ["0,a,90", "0,b,1100", "1,a,110", "1,b,900"]
        self.assertEqual(run.check_bands("w", rows, self.BANDS), [])

    def test_search_outside_its_band_is_a_miss(self):
        misses = run.check_bands("w", ["0,a,40", "0,b,2000", "1,a,110"], self.BANDS)
        self.assertEqual(len(misses), 1)
        self.assertIn("m*=40 outside [50, 200]", misses[0])

    def test_shared_bias_is_caught_by_the_mean(self):
        # Every search 20% high: inside every band, but log(1.2) > 0.1.
        rows = ["0,a,120", "0,b,1200", "1,a,120", "1,b,1200"]
        misses = run.check_bands("w", rows, self.BANDS)
        self.assertEqual(len(misses), 1)
        self.assertIn("mean log(m*/ref)", misses[0])

    def test_unknown_row_is_a_miss(self):
        self.assertIn("no reference band", run.check_bands("w", ["0,c,5"], self.BANDS)[0])

    def test_committed_bands_cover_every_mc_row(self):
        bands = run.load_bands()
        for workload in ("mc_dense_threshold", "mc_short_probes"):
            self.assertGreater(bands[workload]["mean_log_ratio_limit"], 0)
            for band in bands[workload]["rows"].values():
                self.assertLessEqual(band["lo"], band["ref"])
                self.assertLessEqual(band["ref"], band["hi"])


class CommandLineTest(unittest.TestCase):
    def test_accepts_the_documented_arguments(self):
        args = run.parse_args(["--workload", "sketch_solve", "--seed", "3",
                               "--seconds", "10", "--trace", "1"])
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace),
                         ("sketch_solve", 3, 10, 1))

    def test_rejects_unknown_and_malformed_arguments(self):
        base = ["--workload", "sketch_solve", "--seed", "3", "--seconds", "10", "--trace", "0"]
        for bad in (base + ["--treads", "4"], base[:-2], base[:-1] + ["2"],
                    ["--workload", "nope"] + base[2:], base + ["extra"],
                    ["--work", "sketch_solve"] + base[2:]):
            with self.assertRaises(SystemExit) as caught:
                run.parse_args(bad)
            self.assertEqual(caught.exception.code, 2, bad)

    def test_child_timeout_grows_with_the_run(self):
        self.assertGreater(run.run_timeout(35), 35 * 2)
        self.assertGreater(run.run_timeout(3600), 3600)


if __name__ == "__main__":
    unittest.main()
