"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import metrics


def span(name, parent, start, dur, items=0, aggregate=False):
    return {"name": name, "parent": parent, "start_ns": start,
            "dur_ns": dur, "items": items, "aggregate": aggregate}


def record(workload="match_all", seed=0, check="aa", runs=None,
           batch="", check_ok=True):
    return {"workload": workload, "seed": seed, "check_digest": check,
            "batch_digest": batch, "check_ok": check_ok,
            "runs": runs or []}


def job(digest, units=1, mismatches=0, wall=1.0):
    return {"digest": digest, "units": units, "unit_mismatches": mismatches,
            "wall_s": wall}


class AggregationTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(metrics.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.median([])

    def test_quartile_spread_matches_statistics_quantiles(self):
        # quantiles(n=4) of 1..10 (exclusive method): 2.75, 5.5, 8.25.
        values = [float(v) for v in range(10, 0, -1)]
        self.assertAlmostEqual(metrics.quartile_spread(values),
                               (8.25 - 2.75) / 5.5)

    def test_normalized_scales_by_the_bracketing_calibration(self):
        ref = metrics.CALIBRATION_REFERENCE_S
        # A host at half speed doubles both the job and its calibration.
        self.assertEqual(
            metrics.normalized([2.0, 3.0], [2 * ref, 2 * ref, 4 * ref]),
            [1.0, 1.0])
        with self.assertRaises(ValueError):
            metrics.normalized([1.0], [ref])

    def test_end_to_end_takes_medians_of_normalized_times(self):
        ref = metrics.CALIBRATION_REFERENCE_S
        raw = {"runs": [job("a", wall=w) for w in (2.0, 1.5, 3.0)],
               "calib_s": [ref, ref, 2 * ref, ref],
               "setup_s": [0.5, 0.7], "setup_calib_s": [ref] * 3,
               "peak_rss_mb": 300.0}
        m = metrics.end_to_end_metrics(raw)
        # Normalized walls: 2.0, 1.5 / 1.5 = 1.0, 3.0 / 1.5 = 2.0.
        self.assertEqual(m["wall_s"], {"value": 2.0, "unit": "s"})
        self.assertAlmostEqual(m["setup_s"]["value"], 0.6)
        self.assertEqual(m["peak_rss_mb"]["unit"], "MB")


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        spans = [span("root", -1, 0, 100)]
        self.assertEqual(metrics.self_time_ns(spans, 0), 100)

    def test_overlapping_interval_children_count_once(self):
        spans = [span("root", -1, 0, 100),
                 span("a", 0, 10, 30),   # [10, 40)
                 span("b", 0, 30, 20),   # [30, 50), overlaps a
                 span("c", 0, 90, 30)]   # [90, 120), clipped to 100
        # Covered: [10, 50) + [90, 100) = 50.
        self.assertEqual(metrics.self_time_ns(spans, 0), 50)

    def test_aggregate_children_subtract_their_busy_time(self):
        spans = [span("pass", -1, 0, 100),
                 span("x", 0, 0, 30, aggregate=True),
                 span("y", 0, 0, 45, aggregate=True),
                 span("grandchild", 1, 0, 10)]
        self.assertEqual(metrics.self_time_ns(spans, 0), 25)

    def test_attribution_gap_share(self):
        spans = [span("ref", -1, 0, 200),
                 span("pass", -1, 300, 190),
                 span("stage1", 1, 300, 100, aggregate=True),
                 span("stage2", 1, 300, 50, aggregate=True)]
        # Layers cover 150 of the reference's 200: a quarter is unexplained.
        self.assertAlmostEqual(
            metrics.attribution_gap_share(spans, "pass", "ref"), 0.25)

    def test_ns_per_item_sums_same_named_spans(self):
        spans = [span("s", -1, 0, 100, items=10),
                 span("s", -1, 200, 300, items=30)]
        self.assertEqual(metrics.ns_per_item(spans, "s"), 10.0)


class CheckOutputsTest(unittest.TestCase):
    def test_all_digests_match(self):
        raw = record(runs=[job("aa", units=5), job("aa", units=5)])
        self.assertEqual(metrics.check_outputs(raw, {}), (10, 0, []))

    def test_digest_mismatch_fails_the_job_units(self):
        raw = record(workload="serve_replay",
                     runs=[job("aa", units=7), job("bb", units=7)])
        attempted, failed, problems = metrics.check_outputs(raw, {})
        self.assertEqual((attempted, failed), (14, 7))
        self.assertEqual(len(problems), 1)

    def test_unit_mismatches_count_only_the_wrong_units(self):
        raw = record(runs=[job("bb", units=100, mismatches=3)])
        self.assertEqual(metrics.check_outputs(raw, {})[:2], (100, 3))

    def test_reference_digest_is_the_expectation(self):
        raw = record(seed=4, check="aa", runs=[job("aa", units=2)])
        attempted, failed, problems = metrics.check_outputs(
            raw, {"match_all": {"4": "cc"}})
        self.assertEqual((attempted, failed), (2, 2))
        self.assertIn("reference", problems[0])

    def test_other_seeds_use_the_in_run_check(self):
        raw = record(seed=5, runs=[job("aa")])
        self.assertEqual(metrics.check_outputs(
            raw, {"match_all": {"4": "cc"}})[1], 0)

    def test_study_shapes_share_the_reference(self):
        raw = record(workload="study_ingest", seed=0, check="s0",
                     batch="s0", runs=[job("s0")])
        self.assertEqual(
            metrics.check_outputs(raw, {"study": {"0": "s0"}})[1], 0)

    def test_streamed_study_must_equal_batch(self):
        raw = record(workload="study_streamed", check="s1", batch="s2",
                     runs=[job("s1"), job("s1")])
        attempted, failed, problems = metrics.check_outputs(raw, {})
        self.assertEqual((attempted, failed), (2, 2))
        self.assertIn("batch", problems[0])

    def test_disagreeing_warm_ups_fail_everything(self):
        raw = record(check_ok=False, runs=[job("aa", units=4)])
        self.assertEqual(metrics.check_outputs(raw, {})[1], 4)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_lists_every_metric_this_module_reports(self):
        doc = json.loads(
            (Path(__file__).resolve().parent.parent /
             "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
            [(n, u, b) for n, u, b, _ in metrics.PER_LAYER])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]],
            metrics.END_TO_END)
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(metrics.DIGEST_FAMILY))


if __name__ == "__main__":
    unittest.main()
