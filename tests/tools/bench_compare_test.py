#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py - the benchmark regression gate.

Covers the one generic compare(): each gate kind (sim at 1%, bound against
the baseline's one- or two-sided min/max), checks, the config-equality
refusal, the asymmetric row-set rule, gates and checks that vanish or change
kind, non-positive baselines and the "gate gated nothing" guard; load()'s
schema refusals (a retired wall-clock "wall" gate among them); main()'s
bench-name pairing and exit codes; and that every committed baseline loads
under the schema.

Stdlib only; run directly (`python3 tests/tools/bench_compare_test.py`)
or through ctest as `bench_compare_test`.
"""

import glob
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


def report(throughput=2000.0, speedup=30.0, ratio=1.5, identical=True, ticks=5000):
    """A report exercising every gate kind, both bound shapes and a check."""
    return {
        "bench": "probe",
        "config": {"ticks": ticks, "build_type": "release"},
        "threads": 8,
        "rows": [
            {"name": "busy", "tasks": 100, "ticks_per_second": 1000.0,
             "gates": {"throughput": {"value": throughput, "kind": "sim"}},
             "checks": {"identical": identical}},
            {"name": "sparse_idle",
             "gates": {"speedup": {"value": speedup, "kind": "bound", "min": 10.0}}},
            {"name": "scaling",
             "gates": {"cost_ratio": {"value": ratio, "kind": "bound", "min": 0.25,
                                      "max": 4.0}}},
        ],
    }


def row(doc, name):
    return next(r for r in doc["rows"] if r["name"] == name)


def failures(baseline, current):
    return bench_compare.compare(baseline, current)[1]


def failing(baseline, current, text):
    return any(text in failure for failure in failures(baseline, current))


class SimGateTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        self.assertEqual(failures(report(), report()), [])

    def test_improvement_passes(self):
        self.assertEqual(failures(report(throughput=2000.0), report(throughput=4000.0)), [])

    def test_gates_at_one_percent(self):
        # Simulated values are deterministic: a 2% drop must fail.
        self.assertTrue(failing(report(throughput=2000.0), report(throughput=1960.0),
                                "throughput[busy]"))

    def test_within_one_percent_passes(self):
        self.assertEqual(failures(report(throughput=2000.0), report(throughput=1990.0)), [])

    def test_non_positive_baseline_is_skipped(self):
        lines, found = bench_compare.compare(report(throughput=0.0), report(throughput=1.0))
        self.assertEqual(found, [])
        self.assertTrue(any("not positive; skipped" in line for line in lines))


class BoundGateTest(unittest.TestCase):
    def test_at_min_passes_whatever_the_baseline_recorded(self):
        self.assertEqual(failures(report(speedup=1.0), report(speedup=10.0)), [])

    def test_below_min_fails(self):
        self.assertTrue(failing(report(), report(speedup=9.9), "speedup[sparse_idle]"))

    def test_two_sided_bound_at_min_passes(self):
        self.assertEqual(failures(report(), report(ratio=0.25)), [])

    def test_two_sided_bound_at_max_fails(self):
        # The interval is half-open: [min, max).
        self.assertTrue(failing(report(), report(ratio=4.0), "cost_ratio[scaling]"))

    def test_two_sided_bound_at_zero_fails(self):
        # A clock that did not advance makes a ratio of 0: under the max,
        # but not a measurement.
        self.assertTrue(failing(report(), report(ratio=0.0), "cost_ratio[scaling]"))

    def test_row_without_the_value_fails(self):
        current = report()
        del row(current, "sparse_idle")["gates"]["speedup"]
        self.assertTrue(failing(report(), current, "speedup[sparse_idle]"))

    def test_bounds_come_from_the_baseline(self):
        # A bench that writes a looser bound does not loosen its gate.
        current = report(speedup=2.0)
        row(current, "sparse_idle")["gates"]["speedup"]["min"] = 1.0
        self.assertTrue(failing(report(), current, "speedup[sparse_idle]"))


class GateShapeTest(unittest.TestCase):
    def test_gate_missing_from_current_run_fails(self):
        current = report()
        del row(current, "busy")["gates"]["throughput"]
        self.assertTrue(failing(report(), current, "throughput[busy]"))

    def test_kind_mismatch_fails(self):
        # A sim gate rewritten as a bound would trade the baseline for the
        # bench's own limits.
        current = report(throughput=1800.0)
        row(current, "busy")["gates"]["throughput"].update(kind="bound", min=0.0)
        self.assertTrue(failing(report(), current, "kind 'bound' differs"))


class CheckTest(unittest.TestCase):
    def test_false_check_fails(self):
        self.assertTrue(failing(report(), report(identical=False), "identical[busy]"))

    def test_check_missing_from_current_run_fails(self):
        current = report()
        del row(current, "busy")["checks"]
        self.assertTrue(failing(report(), current, "identical[busy]"))

    def test_false_check_the_baseline_lacks_fails(self):
        current = report()
        row(current, "sparse_idle")["checks"] = {"identical": False}
        self.assertTrue(failing(report(), current, "identical[sparse_idle]"))


class ConfigAndRowsTest(unittest.TestCase):
    def test_config_mismatch_fails(self):
        self.assertTrue(failing(report(ticks=5000), report(ticks=100),
                                "config mismatch on 'ticks'"))

    def test_informational_fields_do_not_gate(self):
        current = report()
        current["threads"] = 1
        row(current, "busy")["tasks"] = 7
        self.assertEqual(failures(report(), current), [])

    def test_missing_baseline_row_fails(self):
        current = report()
        current["rows"] = [r for r in current["rows"] if r["name"] != "sparse_idle"]
        self.assertTrue(failing(report(), current, "rows missing from current run: sparse_idle"))

    def test_new_current_row_is_skipped_not_failed(self):
        current = report()
        current["rows"].append(
            {"name": "heavy", "gates": {"throughput": {"value": 1.0, "kind": "sim"}},
             "checks": {"identical": False}})
        lines, found = bench_compare.compare(report(), current)
        self.assertEqual(found, [])
        self.assertTrue(any("heavy" in line and "skipped" in line for line in lines))

    def test_gate_that_gated_nothing_fails(self):
        empty = report()
        empty["rows"] = []
        self.assertTrue(failing(empty, empty, "gated nothing"))

    def test_rows_without_gates_gate_nothing(self):
        checks_only = report()
        for r in checks_only["rows"]:
            r.pop("gates")
        self.assertTrue(failing(checks_only, checks_only, "gated nothing"))

    def test_bounds_alone_gate_something(self):
        bounds_only = report()
        bounds_only["rows"] = bounds_only["rows"][1:]
        self.assertEqual(failures(bounds_only, bounds_only), [])


class LoadTest(unittest.TestCase):
    def _load(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return bench_compare.load(path)

    def test_loads_a_report(self):
        self.assertEqual(self._load(json.dumps(report()))["bench"], "probe")

    def test_unreadable_path_exits(self):
        with self.assertRaises(SystemExit):
            bench_compare.load(os.path.join(tempfile.gettempdir(), "no-such-file.json"))

    def test_malformed_json_exits(self):
        # One JSON document per report; the old JSONL dialect is refused.
        lines = [json.dumps({"bench": "probe", "config": {}}), json.dumps({"name": "a"})]
        with self.assertRaises(SystemExit):
            self._load("\n".join(lines))

    def test_unknown_kind_exits(self):
        doc = report()
        row(doc, "busy")["gates"]["throughput"]["kind"] = "exact"
        with self.assertRaises(SystemExit):
            self._load(json.dumps(doc))

    def test_wall_kind_exits(self):
        # Absolute wall-clock rates are informational fields, never gates.
        doc = report()
        row(doc, "busy")["gates"]["ticks_per_second"] = dict(value=1000.0, kind="wall")
        with self.assertRaises(SystemExit):
            self._load(json.dumps(doc))

    def test_bound_without_limits_exits(self):
        doc = report()
        del row(doc, "sparse_idle")["gates"]["speedup"]["min"]
        with self.assertRaises(SystemExit):
            self._load(json.dumps(doc))

    def test_non_boolean_check_exits(self):
        with self.assertRaises(SystemExit):
            self._load(json.dumps(report(identical="yes")))

    def test_committed_baselines_load_under_the_schema(self):
        paths = sorted(glob.glob(os.path.join(_REPO, "bench", "baselines", "*.json")))
        self.assertEqual(len(paths), 5)
        for path in paths:
            with self.subTest(path=os.path.basename(path)):
                doc = bench_compare.load(path)
                kinds = {gate["kind"] for r in doc["rows"] for gate in r.get("gates", {}).values()}
                self.assertLessEqual(kinds, set(bench_compare.KINDS))
                # Compared with itself, each passes and gates something.
                self.assertEqual(failures(doc, doc), [])


class MainTest(unittest.TestCase):
    def _run_main(self, baseline_doc, current_doc):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "baseline.json")
            current = os.path.join(tmp, "current.json")
            with open(baseline, "w", encoding="utf-8") as handle:
                json.dump(baseline_doc, handle)
            with open(current, "w", encoding="utf-8") as handle:
                json.dump(current_doc, handle)
            old_argv, old_stdout = sys.argv, sys.stdout
            sys.argv = ["bench_compare.py", "--baseline", baseline, "--current", current]
            sys.stdout = open(os.devnull, "w", encoding="utf-8")
            try:
                return bench_compare.main()
            finally:
                sys.stdout.close()
                sys.argv, sys.stdout = old_argv, old_stdout

    def test_pass_exit_zero(self):
        self.assertEqual(self._run_main(report(), report()), 0)

    def test_regression_exit_nonzero(self):
        self.assertEqual(self._run_main(report(throughput=2000.0), report(throughput=100.0)), 1)

    def test_mismatched_bench_names_refuse(self):
        other = report()
        other["bench"] = "other"
        with self.assertRaises(SystemExit):
            self._run_main(report(), other)


if __name__ == "__main__":
    unittest.main()
