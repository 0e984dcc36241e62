#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py - the benchmark regression gate.

Covers every comparator (tick_hot_path, sweep_scaling, governor_sweep,
cluster_scale, serve_throughput, chaos_overhead) on passing and regressing
inputs, the asymmetric row-set
rule (baseline row missing fails, new current row is warned and skipped),
the config-mismatch refusal, the JSONL loader, and main()'s bench-name
pairing check plus the "gate gated nothing" guard.

Stdlib only; run directly (`python3 tests/tools/bench_compare_test.py`)
or through ctest as `bench_compare_test`.
"""

import importlib.util
import json
import os
import sys
import tempfile
import unittest

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", os.path.join(_REPO, "tools", "bench_compare.py"))
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def tick_hot_path_doc(rate=1000.0, identical=True, ticks=5000):
    return {
        "bench": "tick_hot_path",
        "ticks": ticks,
        "sparse_ticks": 20000,
        "threads": 8,
        "build_type": "Release",
        "populations": [
            {"name": "light_64", "engine_ticks_per_second": rate, "identical": identical},
            {"name": "sparse_idle", "engine_ticks_per_second": rate * 4, "identical": identical},
        ],
    }


def sweep_scaling_doc(rate=500.0, deterministic=True):
    return {
        "bench": "sweep_scaling",
        "runs": 8,
        "duration_ticks": 20000,
        "threads": 8,
        "build_type": "Release",
        "single_thread_ticks_per_second": rate,
        "deterministic_across_threads": deterministic,
    }


def governor_sweep_doc(throughput=2000.0):
    return {
        "bench": "governor_sweep",
        "scenario": "two-phase",
        "duration_ticks": 20000,
        "runs": [
            {"name": "none/load_only", "throughput": throughput},
            {"name": "ondemand/load_only", "throughput": throughput * 0.9,
             "avg_frequency_cpu0": 2.2},
        ],
    }


def cluster_scale_doc(rate=100.0):
    return {
        "bench": "cluster_scale",
        "ticks": 200,
        "balance_sweeps": 3,
        "threads": 8,
        "build_type": "Release",
        "rows": [
            {"name": "tick_512", "ticks_per_second": rate},
            {"name": "balance_1024", "passes_per_second": rate * 10},
            {"name": "balance_scaling", "sublinear": True},
        ],
    }


def serve_throughput_doc(rate=50.0, identical=True):
    return {
        "bench": "serve_throughput",
        "requests": 24,
        "duration_ms": 2000,
        "threads": 4,
        "build_type": "release",
        "rows": [
            {"name": "warm_service", "seconds": 0.5, "requests_per_second": rate,
             "identical": True},
            {"name": "warm_socket", "seconds": 0.5, "requests_per_second": rate * 0.95,
             "identical": identical},
            {"name": "fork_per_run", "seconds": 2.0, "requests_per_second": rate / 4,
             "identical": identical},
        ],
    }


def chaos_overhead_doc(throughput=1500.0, wall_rate=100000.0, identical=True,
                       chaos_fired=26):
    return {
        "bench": "chaos_overhead",
        "scenario": "chaos-soak",
        "duration_ticks": 20000,
        "threads": 8,
        "build_type": "release",
        "runs": [
            {"name": "fault-free", "throughput": throughput,
             "wall_ticks_per_second": wall_rate},
            {"name": "armed-idle", "throughput": throughput,
             "wall_ticks_per_second": wall_rate * 0.97, "faults_fired": 0,
             "offline_cpu_ticks": 0, "identical_physics": identical},
            {"name": "chaos", "throughput": throughput * 0.8,
             "wall_ticks_per_second": wall_rate * 0.9,
             "faults_fired": chaos_fired, "offline_cpu_ticks": 4000},
        ],
    }


def run_gate(comparator, baseline, current, threshold=0.25):
    gate = bench_compare.Gate(threshold)
    comparator(baseline, current, gate)
    return gate


class TickHotPathTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        gate = run_gate(bench_compare.compare_tick_hot_path,
                        tick_hot_path_doc(), tick_hot_path_doc())
        self.assertEqual(gate.failures, [])
        self.assertEqual(gate.rates_compared, 2)

    def test_improvement_passes(self):
        gate = run_gate(bench_compare.compare_tick_hot_path,
                        tick_hot_path_doc(rate=1000.0), tick_hot_path_doc(rate=2000.0))
        self.assertEqual(gate.failures, [])

    def test_regression_beyond_threshold_fails(self):
        gate = run_gate(bench_compare.compare_tick_hot_path,
                        tick_hot_path_doc(rate=1000.0), tick_hot_path_doc(rate=600.0))
        self.assertTrue(any("engine_ticks_per_second" in f for f in gate.failures))

    def test_regression_within_threshold_passes(self):
        gate = run_gate(bench_compare.compare_tick_hot_path,
                        tick_hot_path_doc(rate=1000.0), tick_hot_path_doc(rate=900.0))
        self.assertEqual(gate.failures, [])

    def test_config_mismatch_fails(self):
        gate = run_gate(bench_compare.compare_tick_hot_path,
                        tick_hot_path_doc(ticks=5000), tick_hot_path_doc(ticks=100))
        self.assertTrue(any("config mismatch on 'ticks'" in f for f in gate.failures))

    def test_lost_bit_identity_fails(self):
        gate = run_gate(bench_compare.compare_tick_hot_path,
                        tick_hot_path_doc(identical=True), tick_hot_path_doc(identical=False))
        self.assertTrue(any("bit-identical" in f for f in gate.failures))

    def test_missing_baseline_row_fails(self):
        current = tick_hot_path_doc()
        current["populations"] = current["populations"][:1]  # sparse_idle gone
        gate = run_gate(bench_compare.compare_tick_hot_path, tick_hot_path_doc(), current)
        self.assertTrue(any("sparse_idle" in f for f in gate.failures))

    def test_new_current_row_is_skipped_not_failed(self):
        current = tick_hot_path_doc()
        current["populations"].append(
            {"name": "heavy_4096", "engine_ticks_per_second": 50.0, "identical": True})
        gate = run_gate(bench_compare.compare_tick_hot_path, tick_hot_path_doc(), current)
        self.assertEqual(gate.failures, [])
        self.assertTrue(any("heavy_4096" in line and "skipped" in line for line in gate.lines))


class SweepScalingTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        gate = run_gate(bench_compare.compare_sweep_scaling,
                        sweep_scaling_doc(), sweep_scaling_doc())
        self.assertEqual(gate.failures, [])
        self.assertEqual(gate.rates_compared, 1)

    def test_regression_fails(self):
        gate = run_gate(bench_compare.compare_sweep_scaling,
                        sweep_scaling_doc(rate=500.0), sweep_scaling_doc(rate=300.0))
        self.assertTrue(any("single_thread_ticks_per_second" in f for f in gate.failures))

    def test_lost_determinism_fails(self):
        gate = run_gate(bench_compare.compare_sweep_scaling,
                        sweep_scaling_doc(), sweep_scaling_doc(deterministic=False))
        self.assertTrue(any("deterministic_across_threads" in f for f in gate.failures))

    def test_build_type_mismatch_fails(self):
        current = sweep_scaling_doc()
        current["build_type"] = "Debug"
        gate = run_gate(bench_compare.compare_sweep_scaling, sweep_scaling_doc(), current)
        self.assertTrue(any("config mismatch on 'build_type'" in f for f in gate.failures))


class GovernorSweepTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        gate = run_gate(bench_compare.compare_governor_sweep,
                        governor_sweep_doc(), governor_sweep_doc())
        self.assertEqual(gate.failures, [])
        self.assertEqual(gate.rates_compared, 2)

    def test_gates_at_one_percent_not_global_threshold(self):
        # Simulated throughput is deterministic: a 5% drop is far inside the
        # 25% wall-clock threshold but must still fail the 1% gate.
        gate = run_gate(bench_compare.compare_governor_sweep,
                        governor_sweep_doc(throughput=2000.0),
                        governor_sweep_doc(throughput=1900.0))
        self.assertTrue(any("throughput" in f for f in gate.failures))

    def test_dvfs_column_on_none_row_fails(self):
        current = governor_sweep_doc()
        current["runs"][0]["avg_frequency_cpu0"] = 2.8  # "none/" must not carry it
        gate = run_gate(bench_compare.compare_governor_sweep, governor_sweep_doc(), current)
        self.assertTrue(any("dvfs columns absent[none/load_only]" in f for f in gate.failures))

    def test_missing_dvfs_column_on_governed_row_fails(self):
        current = governor_sweep_doc()
        del current["runs"][1]["avg_frequency_cpu0"]
        gate = run_gate(bench_compare.compare_governor_sweep, governor_sweep_doc(), current)
        self.assertTrue(
            any("dvfs columns present[ondemand/load_only]" in f for f in gate.failures))

    def test_missing_baseline_row_fails(self):
        current = governor_sweep_doc()
        current["runs"] = current["runs"][1:]
        gate = run_gate(bench_compare.compare_governor_sweep, governor_sweep_doc(), current)
        self.assertTrue(any("none/load_only" in f for f in gate.failures))


class ClusterScaleTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        gate = run_gate(bench_compare.compare_cluster_scale,
                        cluster_scale_doc(), cluster_scale_doc())
        self.assertEqual(gate.failures, [])
        self.assertEqual(gate.rates_compared, 2)  # one ticks/s row, one passes/s row

    def test_tick_row_regression_fails(self):
        gate = run_gate(bench_compare.compare_cluster_scale,
                        cluster_scale_doc(rate=100.0), cluster_scale_doc(rate=50.0))
        self.assertTrue(any("ticks_per_second[tick_512]" in f for f in gate.failures))
        self.assertTrue(any("passes_per_second[balance_1024]" in f for f in gate.failures))

    def test_lost_sublinear_scaling_fails(self):
        current = cluster_scale_doc()
        current["rows"][2]["sublinear"] = False
        gate = run_gate(bench_compare.compare_cluster_scale, cluster_scale_doc(), current)
        self.assertTrue(any("sublinear" in f for f in gate.failures))

    def test_ticks_mismatch_fails(self):
        current = cluster_scale_doc()
        current["ticks"] = 100
        gate = run_gate(bench_compare.compare_cluster_scale, cluster_scale_doc(), current)
        self.assertTrue(any("config mismatch on 'ticks'" in f for f in gate.failures))


class ServeThroughputTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        gate = run_gate(bench_compare.compare_serve_throughput,
                        serve_throughput_doc(), serve_throughput_doc())
        self.assertEqual(gate.failures, [])
        self.assertEqual(gate.rates_compared, 3)

    def test_regression_fails(self):
        gate = run_gate(bench_compare.compare_serve_throughput,
                        serve_throughput_doc(rate=50.0), serve_throughput_doc(rate=20.0))
        self.assertTrue(
            any("requests_per_second[warm_service]" in f for f in gate.failures))

    def test_lost_byte_identity_fails(self):
        gate = run_gate(bench_compare.compare_serve_throughput,
                        serve_throughput_doc(identical=True),
                        serve_throughput_doc(identical=False))
        self.assertTrue(any("byte-identical" in f for f in gate.failures))

    def test_missing_fork_row_fails(self):
        current = serve_throughput_doc()
        current["rows"] = current["rows"][:2]  # fork_per_run gone
        gate = run_gate(bench_compare.compare_serve_throughput,
                        serve_throughput_doc(), current)
        self.assertTrue(any("fork_per_run" in f for f in gate.failures))

    def test_config_mismatch_fails(self):
        current = serve_throughput_doc()
        current["requests"] = 8
        gate = run_gate(bench_compare.compare_serve_throughput,
                        serve_throughput_doc(), current)
        self.assertTrue(any("config mismatch on 'requests'" in f for f in gate.failures))


class ChaosOverheadTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        gate = run_gate(bench_compare.compare_chaos_overhead,
                        chaos_overhead_doc(), chaos_overhead_doc())
        self.assertEqual(gate.failures, [])
        self.assertEqual(gate.rates_compared, 6)  # throughput + wall rate x 3 rows

    def test_simulated_throughput_gates_at_one_percent(self):
        # 5% lower simulated throughput is well inside the 25% wall-clock
        # tolerance but the rows are deterministic - it must fail.
        gate = run_gate(bench_compare.compare_chaos_overhead,
                        chaos_overhead_doc(throughput=1500.0),
                        chaos_overhead_doc(throughput=1425.0))
        self.assertTrue(any("throughput[" in f for f in gate.failures))

    def test_idle_overhead_regression_fails(self):
        # The armed-idle wall rate collapsing means the fault layer started
        # costing real time while firing nothing.
        current = chaos_overhead_doc()
        current["runs"][1]["wall_ticks_per_second"] = 1000.0
        gate = run_gate(bench_compare.compare_chaos_overhead,
                        chaos_overhead_doc(), current)
        self.assertTrue(
            any("wall_ticks_per_second[armed-idle]" in f for f in gate.failures))

    def test_diverged_idle_physics_fails(self):
        gate = run_gate(bench_compare.compare_chaos_overhead,
                        chaos_overhead_doc(identical=True),
                        chaos_overhead_doc(identical=False))
        self.assertTrue(any("physics identical" in f for f in gate.failures))

    def test_chaos_plan_that_stops_firing_fails(self):
        gate = run_gate(bench_compare.compare_chaos_overhead,
                        chaos_overhead_doc(chaos_fired=26),
                        chaos_overhead_doc(chaos_fired=0))
        self.assertTrue(any("fires faults" in f for f in gate.failures))

    def test_fault_columns_on_fault_free_row_fail(self):
        current = chaos_overhead_doc()
        current["runs"][0]["faults_fired"] = 0  # fault-free must not carry it
        gate = run_gate(bench_compare.compare_chaos_overhead,
                        chaos_overhead_doc(), current)
        self.assertTrue(
            any("fault columns absent[fault-free]" in f for f in gate.failures))

    def test_missing_armed_idle_row_fails(self):
        current = chaos_overhead_doc()
        current["runs"] = [current["runs"][0], current["runs"][2]]
        gate = run_gate(bench_compare.compare_chaos_overhead,
                        chaos_overhead_doc(), current)
        self.assertTrue(any("armed-idle" in f for f in gate.failures))


class GateTest(unittest.TestCase):
    def test_non_positive_baseline_is_skipped(self):
        gate = bench_compare.Gate(0.25)
        gate.rate("m", 0.0, 100.0)
        self.assertEqual(gate.failures, [])
        self.assertEqual(gate.rates_compared, 0)

    def test_per_metric_threshold_overrides_global(self):
        gate = bench_compare.Gate(0.25)
        gate.rate("m", 100.0, 95.0, threshold=0.01)
        self.assertTrue(gate.failures)


class LoadTest(unittest.TestCase):
    def _write(self, directory, name, text):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def test_loads_single_document(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = self._write(tmp, "doc.json", json.dumps(tick_hot_path_doc()))
            self.assertEqual(bench_compare.load(path)["bench"], "tick_hot_path")

    def test_loads_jsonl_with_header_runs_and_trailer(self):
        with tempfile.TemporaryDirectory() as tmp:
            lines = [
                json.dumps({"bench": "governor_sweep", "scenario": "two-phase"}),
                json.dumps({"name": "none/load_only", "throughput": 2000.0}),
                json.dumps({"name": "ondemand/load_only", "throughput": 1800.0,
                            "avg_frequency_cpu0": 2.2}),
                json.dumps({"duration_ticks": 20000}),  # trailer merges into header
            ]
            path = self._write(tmp, "doc.jsonl", "\n".join(lines) + "\n")
            doc = bench_compare.load(path)
            self.assertEqual(doc["bench"], "governor_sweep")
            self.assertEqual(doc["duration_ticks"], 20000)
            self.assertEqual([run["name"] for run in doc["runs"]],
                             ["none/load_only", "ondemand/load_only"])

    def test_jsonl_without_bench_key_exits(self):
        with tempfile.TemporaryDirectory() as tmp:
            # Two lines so the single-document parse fails and the JSONL
            # branch runs; no line carries "bench", which must refuse.
            text = json.dumps({"name": "a"}) + "\n" + json.dumps({"name": "b"}) + "\n"
            path = self._write(tmp, "doc.jsonl", text)
            with self.assertRaises(SystemExit):
                bench_compare.load(path)

    def test_unreadable_path_exits(self):
        with self.assertRaises(SystemExit):
            bench_compare.load(os.path.join(tempfile.gettempdir(), "no-such-file.json"))


class MainTest(unittest.TestCase):
    def _run_main(self, baseline_doc, current_doc, argv_extra=()):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "baseline.json")
            current = os.path.join(tmp, "current.json")
            with open(baseline, "w", encoding="utf-8") as handle:
                json.dump(baseline_doc, handle)
            with open(current, "w", encoding="utf-8") as handle:
                json.dump(current_doc, handle)
            argv = ["bench_compare.py", "--baseline", baseline, "--current", current]
            argv.extend(argv_extra)
            old_argv, old_stdout = sys.argv, sys.stdout
            sys.argv = argv
            sys.stdout = open(os.devnull, "w", encoding="utf-8")
            try:
                return bench_compare.main()
            finally:
                sys.stdout.close()
                sys.argv, sys.stdout = old_argv, old_stdout

    def test_pass_exit_zero(self):
        self.assertEqual(self._run_main(tick_hot_path_doc(), tick_hot_path_doc()), 0)

    def test_regression_exit_nonzero(self):
        self.assertEqual(
            self._run_main(tick_hot_path_doc(rate=1000.0), tick_hot_path_doc(rate=100.0)), 1)

    def test_mismatched_bench_names_refuse(self):
        with self.assertRaises(SystemExit):
            self._run_main(tick_hot_path_doc(), sweep_scaling_doc())

    def test_unknown_bench_refuses(self):
        doc = {"bench": "no_such_bench"}
        with self.assertRaises(SystemExit):
            self._run_main(doc, dict(doc))

    def test_gate_that_gated_nothing_fails(self):
        # Every population row vanishes from both files: zero rates compared
        # must fail, not silently pass.
        baseline = tick_hot_path_doc()
        baseline["populations"] = []
        current = tick_hot_path_doc()
        current["populations"] = []
        self.assertEqual(self._run_main(baseline, current), 1)

    def test_threshold_flag_is_honored(self):
        self.assertEqual(
            self._run_main(tick_hot_path_doc(rate=1000.0), tick_hot_path_doc(rate=900.0),
                           argv_extra=["--threshold", "0.05"]), 1)


if __name__ == "__main__":
    unittest.main()
