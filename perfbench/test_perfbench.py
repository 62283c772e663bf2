#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

Pure tests need nothing built. The last class also drives the real
wilis_cli when a benchmark build exists under .bench_build/cmake, and
skips otherwise.
"""

import copy
import json
import os
import sys
import tempfile
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_no_percentile_below_twenty_samples(self):
        self.assertIsNone(stats.tail_percentile(range(19)))
        d = stats.describe([3.0, 1.0, 2.0])
        self.assertEqual((d["median"], d["n"], d["percentile"]),
                         (2.0, 3, None))

    def test_highest_percentile_with_ten_beyond(self):
        for n, want in ((20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
                        (200, 95.0), (1000, 99.0), (10000, 99.9)):
            p, value, beyond = stats.tail_percentile(range(n))
            self.assertEqual(p, want, n)
            self.assertGreaterEqual(beyond, stats.MIN_BEYOND)
            # exactly `beyond` samples lie above the reported value
            self.assertEqual(sum(1 for x in range(n) if x > value), beyond)

    def test_describe_counts_samples(self):
        d = stats.describe(list(range(40)))
        self.assertEqual((d["n"], d["percentile"], d["percentile_value"]),
                         (40, 75.0, 29))


class BoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        parent = [1.0, 1.0, 1.0]
        self.assertTrue(stats.within_bound(parent, [1.09] * 3, "lower", 0.1))
        self.assertFalse(stats.within_bound(parent, [1.11] * 3, "lower",
                                            0.1))
        self.assertTrue(stats.within_bound(parent, [0.5] * 3, "lower", 0.1))

    def test_higher_is_better(self):
        parent = [100.0] * 3
        self.assertTrue(stats.within_bound(parent, [91.0] * 3, "higher",
                                           0.1))
        self.assertFalse(stats.within_bound(parent, [89.0] * 3, "higher",
                                            0.1))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.relative_spread([1, 2, 3, 4, 5]),
                               (4.5 - 1.5) / 3)

    def test_benchmark_json_matches_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         [n for n, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]],
                         list(layers.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         [w.name for w in workloads.WORKLOADS])
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


def _report(units=16, slots=100):
    stats_ = {"frames_sent": 100, "frames_ok": 80, "delivered": 80,
              "retransmissions": 20, "stalled_slots": 0, "queue_drops": 0,
              "full_phy_frames": 100, "analytic_frames": 0,
              "latency_slots": {"n": 80, "sum": 0.1 + 0.2}}
    units_ = [{"unit": u, "seed": u, "cells": 1, "users": 16,
              "stats": dict(stats_)} for u in range(units)]
    return {"kind": "network", "config": "calibration_file=/a/b",
            "slots": slots, "units_total": units, "units": units_,
            "aggregate": {"unit": -1, "users": 16, "stats": dict(stats_)}}


class CorruptionTest(unittest.TestCase):
    wl = workloads.BY_NAME["fullphy-campaign"]

    def test_digest_ignores_config_but_not_statistics(self):
        a, b = _report(), _report()
        b["config"] = "calibration_file=/elsewhere"
        self.assertEqual(workloads.report_digest(a),
                         workloads.report_digest(b))
        b["units"][3]["stats"]["delivered"] += 1
        self.assertNotEqual(workloads.report_digest(a),
                            workloads.report_digest(b))
        c = _report()
        c["units"][0]["stats"]["latency_slots"]["sum"] = 0.30000000000000004
        c["units"][0]["stats"]["latency_slots"]["sum"] += 1e-16
        self.assertNotEqual(workloads.report_digest(a),
                            workloads.report_digest(c))

    def test_report_checks(self):
        self.assertEqual(workloads.check_report(self.wl, _report(), 100), [])
        bad = _report()
        bad["units"][1]["stats"]["delivered"] = 101
        del bad["units"][7]
        problems = workloads.check_report(self.wl, bad, 100)
        self.assertEqual(len(problems), 2, problems)
        self.assertTrue(workloads.check_report(self.wl, _report(), 200))

    def test_trace_digest_sees_one_byte(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t")
            with open(path, "wb") as f:
                f.write(b"slot 1 tx\n" * 1000)
            before = workloads.file_digest(path)
            with open(path, "r+b") as f:
                f.seek(5000)
                f.write(b"X")
            self.assertNotEqual(before, workloads.file_digest(path))

    def _new_outcome(self, reference=None):
        ctx = types.SimpleNamespace(wl=self.wl, check_reference=False)
        out = run.Outcome(ctx)
        out.reference = reference
        return out

    @staticmethod
    def _batch(digest):
        return types.SimpleNamespace(failure=None, stderr="", digest=digest)

    def test_outcome_fails_a_diverging_batch(self):
        out = self._new_outcome()
        self.assertIsNotNone(out.add(self._batch("aa")))
        self.assertIsNone(out.add(self._batch("bb")))
        self.assertIsNotNone(out.add(self._batch("aa")))
        self.assertEqual((out.attempted, out.failed), (3, 1))
        self.assertIn("first", out.failures[0]["failure"])

    def test_outcome_fails_against_the_pinned_reference(self):
        out = self._new_outcome(reference="aa")
        self.assertIsNone(out.add(self._batch("bb")))
        self.assertIsNotNone(out.add(self._batch("aa")))
        self.assertIn("pinned", out.failures[0]["failure"])


def _span(run_id, sid, parent, start, end, name="x"):
    return {"run_id": run_id, "span_id": sid, "parent_id": parent,
            "name": name, "start_ns": start, "end_ns": end}


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [_span("a", 1, 0, 0, 100),
                 _span("a", 2, 1, 10, 40),
                 _span("a", 3, 1, 30, 60),   # overlaps span 2
                 _span("a", 4, 1, 80, 90),
                 _span("a", 5, 2, 15, 20)]   # grandchild: not span 1's
        st = stats.self_times(spans)
        self.assertEqual(st[("a", 1)], 100 - (50 + 10))
        self.assertEqual(st[("a", 2)], 30 - 5)
        self.assertEqual(st[("a", 3)], 30)

    def test_children_clipped_to_parent_and_runs_kept_apart(self):
        spans = [_span("a", 1, 0, 0, 100),
                 _span("a", 2, 1, 90, 130),
                 _span("b", 1, 0, 0, 50),
                 _span("b", 2, 1, 0, 50)]
        st = stats.self_times(spans)
        self.assertEqual(st[("a", 1)], 90)
        self.assertEqual(st[("b", 1)], 0)

    def test_layers_derive_every_metric(self):
        spans = [_span("probe", 1, 0, 0, 10**9, "sim.run_cold"),
                 _span("probe", 2, 0, 0, 5 * 10**8, "sim.run_warm"),
                 _span("probe", 3, 0, 0, 4 * 10**9, "sim.run_par1"),
                 _span("probe", 4, 0, 0, 10**9, "sim.run_parN"),
                 _span("probe", 5, 0, 0, 2 * 10**6, "phy.tx"),
                 _span("probe", 6, 0, 0, 10**6, "decode.rate3")]
        counts = {"replay_frames": 2, "decode_frames.rate3": 2,
                  "slots": 200, "par_threads": 4}
        m = layers.derive(counts, spans, _report(), None, 2.0)
        self.assertEqual(list(m), [n for n, _, _ in layers.PER_LAYER])
        self.assertAlmostEqual(m["phy.tx_us_per_frame"], 1000.0)
        self.assertAlmostEqual(m["decode.us_per_frame"], 1000.0)
        self.assertAlmostEqual(m["sim.memo_speedup"], 2.0)
        self.assertAlmostEqual(m["sim.par_eff"], 1.0)
        self.assertAlmostEqual(m["sim.link_self_s"], 4.0 - 0.002)
        self.assertEqual(m["mac.user_slots"], 16 * 16 * 100)


class ProcessTest(unittest.TestCase):
    def _run(self, code, deadline_s=30.0):
        with tempfile.TemporaryDirectory() as d:
            [r] = harness.run_group([[sys.executable, "-c", code]],
                                    time.monotonic() + deadline_s, d, "t")
        return r

    def test_abort_is_a_failed_run_with_its_stderr(self):
        # The shape of a missing calibration table: a panic line on
        # stderr, then SIGABRT within milliseconds.
        r = self._run("import os,sys; sys.stderr.write('panic: no table\\n');"
                      "sys.stderr.flush(); os.abort()")
        self.assertEqual(r.failure(), "killed by signal 6")
        self.assertIn("panic: no table", r.stderr_tail)

    def test_exit_status_and_timeout(self):
        self.assertEqual(self._run("raise SystemExit(3)").failure(),
                         "exit status 3")
        self.assertIsNone(self._run("pass").failure())
        r = self._run("import time; time.sleep(30)", deadline_s=0.5)
        self.assertEqual(r.failure(), "timed out")
        self.assertLess(r.wall, 5.0)

    def test_missing_binary(self):
        with tempfile.TemporaryDirectory() as d:
            [r] = harness.run_group([[os.path.join(d, "nope")]],
                                    time.monotonic() + 5, d, "t")
        self.assertTrue(r.failure().startswith("could not start"))


class ProvenanceTest(unittest.TestCase):
    def _meta(self, lines):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "CMakeCache.txt"), "w") as f:
                f.write("\n".join(lines) + "\n")
            return harness.provenance(d)

    def test_refuses_debug_and_sanitizer_builds(self):
        ok = self._meta(["CMAKE_BUILD_TYPE:STRING=RelWithDebInfo",
                         "WILIS_ASAN:BOOL=OFF", "WILIS_TSAN:BOOL=OFF"])
        self.assertIsNone(harness.provenance_refusal(ok))
        for lines in (["CMAKE_BUILD_TYPE:STRING=Debug"],
                      ["CMAKE_BUILD_TYPE:STRING="],
                      ["CMAKE_BUILD_TYPE:STRING=Release",
                       "WILIS_ASAN:BOOL=ON"],
                      ["CMAKE_BUILD_TYPE:STRING=Release",
                       "WILIS_TSAN:BOOL=ON"]):
            self.assertIsNotNone(
                harness.provenance_refusal(self._meta(lines)), lines)


BUILD = os.path.join(ROOT, ".bench_build", "cmake")


@unittest.skipUnless(os.path.exists(os.path.join(BUILD, "wilis",
                                                 "wilis_cli")),
                     "no benchmark build (run perfbench/run.py once)")
class RealBinaryTest(unittest.TestCase):
    """The real worker binary: a missing calibration table, and a
    corrupted report of a real run."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.ctx = types.SimpleNamespace(
            bins=harness.binaries(BUILD),
            seed=1, cores=2, run_dir=self.tmp.name,
            calibration=os.path.join(ROOT, "data",
                                     "network_calibration.txt"),
            deadline=time.monotonic() + 60,
            wl=workloads.Workload(name="t", preset="urban-mobile",
                                  slots=200, reps=1, par_slots=200))

    def tearDown(self):
        self.tmp.cleanup()

    def test_missing_calibration_table_is_a_failed_run(self):
        self.ctx.calibration = os.path.join(self.tmp.name, "missing.txt")
        b = run.Batch(self.ctx, 200, "miss")
        self.assertIn("signal", b.failure)
        self.assertIn("calibration", b.stderr)

    def test_corrupted_real_report_changes_the_digest(self):
        b = run.Batch(self.ctx, 200, "ok")
        self.assertIsNone(b.failure)
        bad = copy.deepcopy(b.report)
        bad["units"][0]["stats"]["frames_ok"] -= 1
        self.assertNotEqual(workloads.report_digest(bad), b.digest)


if __name__ == "__main__":
    unittest.main()
