#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic and output.

    python3 perfbench/test_stats.py
"""

import contextlib
import io
import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402
import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_leaves_exactly_ten_beyond(self):
        value, pct, n = stats.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_is_highest_such_percentile(self):
        for n in (11, 12, 37, 250):
            xs = [float(i) for i in range(n)]
            value, pct, _ = stats.tail(list(reversed(xs)))
            beyond = sum(1 for x in xs if x > value)
            self.assertEqual(beyond, stats.TAIL_BEYOND)
            # The next sample up would leave only nine beyond it.
            self.assertEqual(sum(1 for x in xs if x > value + 1), 9)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(stats.tail([3, 1, 2]), (3, 100.0, 3))
        self.assertEqual(stats.tail(list(range(10))), (9, 100.0, 10))


def span(layer, start, end, parent=-1, op=0):
    return [layer, start, end, parent, op]


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = [span(0, 0, 100), span(1, 10, 50, 0), span(2, 20, 30, 1)]
        self.assertEqual(stats.self_times(spans), [60, 30, 10])

    def test_overlapping_children_count_once(self):
        spans = [span(0, 0, 100), span(1, 10, 60, 0), span(1, 40, 80, 0)]
        self.assertEqual(stats.self_times(spans)[0], 30)

    def test_identical_children_count_once(self):
        spans = [span(0, 0, 100), span(1, 10, 20, 0), span(1, 10, 20, 0)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_child_spilling_past_parent_is_clipped(self):
        spans = [span(0, 0, 50), span(1, 40, 70, 0), span(1, -5, 5, 0)]
        self.assertEqual(stats.self_times(spans)[0], 35)

    def test_roots_and_grandchildren_stay_apart(self):
        # A grandchild is charged to its parent, not to the root.
        spans = [span(0, 0, 100), span(1, 0, 40, 0), span(2, 0, 40, 1),
                 span(0, 200, 300)]
        self.assertEqual(stats.self_times(spans), [60, 0, 40, 100])

    def test_layer_times_sum_self_and_inclusive(self):
        raw = {"layers": ["op", "a"],
               "spans": [span(0, 0, 100), span(1, 10, 30, 0),
                         span(0, 100, 150, op=1), span(1, 100, 110, 2, 1)]}
        self.assertEqual(stats.layer_times(raw),
                         {"op": [120, 150, 2], "a": [30, 30, 2]})


def op(start, lat, cpu, traced=0, kind=0, work=1.0, events=500.0):
    return [kind, start, lat, traced, 1, work, events, cpu]


REF = stats.CAL_REF_NS


class CalibrationTest(unittest.TestCase):
    W = 10 * stats.CAL_NEAR_NS  # keeps each op's samples to its own

    def run_ops(self):
        """Ten ops of 100 ns (50 ns CPU), two per calibration sample."""
        ops, cal = [], []
        for w in range(5):
            cal.append([w * self.W, REF])
            for k in range(2):
                ops.append(op(w * self.W + 100 * k, 100.0, 50.0))
        return {"ops": ops, "window_ns": 5 * self.W, "peak_rss_kb": 2048,
                "cal": cal}

    def test_metrics_of_a_steady_run(self):
        m = stats.end_to_end(self.run_ops(), [(3e8, REF), (1e8, REF),
                                              (2e8, REF)])
        want = {"work_per_s": 1 / 100e-9, "op_p50_ms": 1e-4,
                "op_tail_ms": 1e-4, "cpu_ms_per_op": 5e-5,
                "setup_s": 0.2, "peak_rss_mb": 2.0}
        self.assertEqual(sorted(m), sorted(want))
        for name, value in want.items():
            self.assertAlmostEqual(m[name] / value, 1.0, msg=name)

    def test_calibration_cancels_host_speed(self):
        # The host runs everything 1.9x slower around samples 1-3, and
        # the calibration kernel sees it: scaled metrics do not move.
        raw = self.run_ops()
        for w in (1, 2, 3):
            raw["cal"][w][1] = 1.9 * REF
            for o in raw["ops"][2 * w:2 * w + 2]:
                o[stats.OP_LAT] *= 1.9
                o[stats.OP_CPU] *= 1.9
        setups = [(2e8, REF), (3.8e8, 1.9 * REF), (3.8e8, 1.9 * REF)]
        m = stats.end_to_end(raw, setups)
        self.assertAlmostEqual(m["op_p50_ms"], 1e-4)
        self.assertAlmostEqual(m["op_tail_ms"], 1e-4)
        self.assertAlmostEqual(m["cpu_ms_per_op"], 5e-5)
        self.assertAlmostEqual(m["work_per_s"] * 100e-9, 1.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        unscaled = stats.end_to_end(raw, setups, scaled=False)
        self.assertAlmostEqual(unscaled["op_p50_ms"], 1.9e-4)
        self.assertAlmostEqual(unscaled["setup_s"], 0.38)

    def test_scale_falls_back_to_the_run_median(self):
        cal = [[0, REF], [500, 2 * REF], [900, 2 * REF]]
        self.assertEqual(stats.scale_for(cal, 0, 400), 1.0)
        self.assertEqual(stats.scale_for(cal, 400, 1000), 0.5)
        self.assertEqual(stats.scale_for(cal, 1000, 2000), 0.5)
        self.assertEqual(stats.scale_for(cal), 0.5)

    def test_ops_take_the_samples_near_them(self):
        near = stats.CAL_NEAR_NS
        raw = {"ops": [op(0, 10, 1), op(5 * near, 10, 1)],
               "cal": [[0, REF], [near + 11, 4 * REF], [5 * near, 2 * REF]]}
        self.assertEqual(stats.op_scales(raw), [1.0, 0.5])


def fake_raw(trace):
    """A run's raw output, shaped like the binary prints it."""
    ops, spans, start = [], [], 0
    for i in range(40):
        traced = int(trace and i % 2 == 1)
        lat = 1_000_000 + 1000 * i
        ops.append(op(start, lat, 2_000_000, traced, i % 2))
        if traced:
            spans.append(span(0, start, start + lat, op=i))
            spans.append(span(5, start + 10, start + 800_000,
                              len(spans) - 1, i))
        start += lat
    return {
        "workload": "train_4p4", "seed": "1", "trace": int(trace),
        "setup_ns": 250_000_000, "window_ns": start,
        "cal": [[0, REF]], "peak_rss_kb": 6000,
        "attempted": 43, "failed": 0, "kinds": ["a", "b"],
        "digests": {"a": "0", "b": "1"}, "headline": {"sim_step_s": 5.0},
        "errors": [], "ops": ops, "traced_ops": 20 if trace else 0,
        "counters": {"plan.mapping_orders": 20 * 40320.0,
                     "runtime.steps": 20.0, "runtime.spans": 4000.0,
                     "simcore.events": 8000.0},
        "layers": ["op", "probe", "model.workload", "plan.profile",
                   "plan.partition", "plan.mapping", "runtime.step"],
        "spans": spans,
    }


class OutputTest(unittest.TestCase):
    def run_main(self, trace):
        argv = ["run.py", "--workload", "train_4p4", "--seed", "1",
                "--seconds", "1", "--trace", str(trace)]
        calls = []

        def fake_binary(binary, args):
            calls.append(args)
            if "--setup-only" in args:
                return {"setup_ns": 200_000_000, "cal_ns": REF, "ok": True}
            return fake_raw(trace)

        out = io.StringIO()
        with mock.patch.object(sys, "argv", argv), \
                mock.patch.object(run, "build", return_value="bin"), \
                mock.patch.object(run, "run_binary", fake_binary), \
                contextlib.redirect_stdout(out):
            run.main()
        return json.loads(out.getvalue().strip().splitlines()[-1]), calls

    def benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as f:
            return json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_untraced_prints_every_end_to_end_metric(self):
        result, calls = self.run_main(0)
        self.check_metrics(result, self.benchmark_json()["end_to_end"])
        self.assertEqual(len(calls), run.SETUP_RUNS + 1)
        m = result["metrics"]
        self.assertEqual(m["setup_s"]["value"], 0.2)
        self.assertEqual(m["cpu_ms_per_op"]["value"], 2.0)
        self.assertEqual(m["op_tail_ms"]["value"], 1.029)
        self.assertAlmostEqual(m["work_per_s"]["value"], 40 / 0.04078)
        self.assertEqual(m["peak_rss_mb"]["value"], 6000 / 1024)
        for metric in m.values():
            self.assertGreater(metric["value"], 0)

    def test_traced_prints_every_per_layer_metric(self):
        result, calls = self.run_main(1)
        self.check_metrics(result, self.benchmark_json()["per_layer"])
        self.assertEqual(len(calls), 1)
        m = result["metrics"]
        # Traced ops i = 1, 3, ..., 39 last 1 ms + i us; 0.79999 ms of
        # each is plan.mapping, the rest is the op's own time.
        self.assertAlmostEqual(m["plan.mapping_ms"]["value"], 0.79999)
        self.assertAlmostEqual(m["op.self_ms"]["value"], 0.22001)
        self.assertAlmostEqual(m["plan.share"]["value"], 0.79999 / 1.02)
        self.assertEqual(m["plan.mapping_orders"]["value"], 40320.0)
        self.assertEqual(m["runtime.spans"]["value"], 200.0)


if __name__ == "__main__":
    unittest.main()
