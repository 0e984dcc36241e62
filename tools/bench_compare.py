#!/usr/bin/env python3
"""Benchmark regression gate: diff a fresh BENCH_*.json against a committed baseline.

Usage:
    bench_compare.py --baseline bench/baselines/BENCH_tick_hot_path.json \
                     --current build/BENCH_tick_hot_path.json

Every bench writes one JSON document in one schema (bench/harness.h):

    {"bench": name, "config": {...}, <informational fields>,
     "rows": [{"name": row, <informational fields>, "record": {...},
               "gates": {metric: {"value": v, "kind": k, "min": lo, "max": hi}},
               "checks": {check: true|false}}]}

and one generic comparison gates them all:

  config  Every baseline config field must equal the current run's: rates
          measured under different flags or build types are not comparable.
  rows    Asymmetric. A baseline row missing from the current run fails (a
          gated metric stopped being measured); a current row the baseline
          lacks is reported and skipped until the baseline is refreshed.
  gates   Every gate of a baseline row must be in the current row with the
          same kind. The kind and a bound's min/max are read from the
          baseline, so a bench cannot loosen its own gate by writing another.
            sim    deterministic simulated value: fails more than 1% below
                   the baseline (slack for floating point across compilers)
            bound  ratio measured within one run: fails outside [min, max),
                   whatever the baseline recorded
          Both kinds mean the same on any runner. Absolute wall-clock rates
          are informational fields here; perfbench (BENCHMARK.json) gates
          them as parent/change pairs on one machine.
          A sim gate whose baseline value is not positive is skipped.
  checks  Every check the baseline or the current row names must be true.

A comparison that compared no sim or bound gate fails: silently gating nothing
is worse than failing loudly. Only regressions gate; improvements pass. To
refresh a baseline after an intentional change, copy the current file over
the committed one (the gate prints the exact command).

Stdlib only - no third-party imports.
"""

import argparse
import json
import sys

# Largest tolerated drop below the baseline of a sim gate.
SIM_TOLERANCE = 0.01
KINDS = ("sim", "bound")


def schema_error(doc):
    """The first way `doc` departs from the bench report schema, or None."""
    if not isinstance(doc, dict) or not isinstance(doc.get("bench"), str):
        return 'not a bench report (no "bench" name)'
    if not isinstance(doc.get("config"), dict) or not isinstance(doc.get("rows"), list):
        return 'a report needs a "config" object and a "rows" list'
    for row in doc["rows"]:
        if not isinstance(row, dict) or not isinstance(row.get("name"), str):
            return 'every row needs a "name"'
        gates, checks = row.get("gates", {}), row.get("checks", {})
        if not isinstance(gates, dict) or not isinstance(checks, dict):
            return f"row {row['name']}: gates and checks must be objects"
        for metric, gate in gates.items():
            where = f"gate {metric}[{row['name']}]"
            if not isinstance(gate, dict) or gate.get("kind") not in KINDS:
                return f"{where}: kind must be one of {', '.join(KINDS)}"
            if type(gate.get("value")) not in (int, float):
                return f"{where}: value must be a number"
            if gate["kind"] == "bound" and "min" not in gate and "max" not in gate:
                return f"{where}: a bound needs a min or a max"
        for check, holds in checks.items():
            if not isinstance(holds, bool):
                return f"check {check}[{row['name']}]: must be true or false"
    return None


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"bench_compare: cannot read {path}: {error}")
    problem = schema_error(doc)
    if problem:
        sys.exit(f"bench_compare: {path}: {problem}")
    return doc


def compare(baseline, current):
    """Gates `current` against `baseline`; returns (report lines, failures)."""
    lines, failures = [], []

    for key, want in baseline["config"].items():
        got = current["config"].get(key)
        lines.append(f"  config {key}: baseline {want}, current {got}")
        if got != want:
            failures.append(
                f"config mismatch on '{key}': baseline ran with {want}, current with {got}"
                f" - align the bench flags or refresh the baseline")

    current_rows = {row["name"]: row for row in current["rows"]}
    baseline_names = {row["name"] for row in baseline["rows"]}
    missing = [name for name in baseline_names if name not in current_rows]
    if missing:
        failures.append(f"rows missing from current run: {', '.join(sorted(missing))}"
                        f" - a gated metric is no longer measured")
    for name in current_rows:
        if name not in baseline_names:
            lines.append(f"  row '{name}': not in baseline; skipped"
                         f" (refresh the baseline to gate it)")

    compared = 0
    for base in baseline["rows"]:
        row = current_rows.get(base["name"])
        if row is None:
            continue
        for metric, gate in base.get("gates", {}).items():
            label = f"{metric}[{base['name']}]"
            got = row.get("gates", {}).get(metric)
            if got is None:
                failures.append(f"{label}: gated in the baseline, missing from the current run")
                continue
            if got["kind"] != gate["kind"]:
                failures.append(f"{label}: kind '{got['kind']}' differs from the baseline's"
                                f" '{gate['kind']}'")
                continue
            value = got["value"]
            if gate["kind"] == "bound":
                compared += 1
                low, high = gate.get("min"), gate.get("max")
                inside = (low is None or value >= low) and (high is None or value < high)
                bound = ", ".join(f"{side} {gate[side]:g}" for side in ("min", "max") if side in gate)
                lines.append(f"  {label}: {value:.3g} ({bound}) {'ok' if inside else 'OUT OF BOUND'}")
                if not inside:
                    failures.append(f"{label}: {value:.3g} is outside its bound ({bound})")
                continue
            reference = gate["value"]
            if reference <= 0:
                lines.append(f"  {label}: baseline {reference} not positive; skipped")
                continue
            compared += 1
            change = (value - reference) / reference
            verdict = "REGRESSION" if change < -SIM_TOLERANCE else "ok"
            lines.append(f"  {label}: {reference:.6g} -> {value:.6g} ({change:+.1%}) {verdict}")
            if change < -SIM_TOLERANCE:
                failures.append(f"{label}: {reference:.6g} -> {value:.6g} ({change:+.1%},"
                                f" sim limit -{SIM_TOLERANCE:.0%})")
        checks = row.get("checks", {})
        for check in {**base.get("checks", {}), **checks}:
            holds = checks.get(check) is True
            lines.append(f"  check {check}[{base['name']}]: {'ok' if holds else 'VIOLATED'}")
            if not holds:
                failures.append(f"check {check}[{base['name']}] no longer holds")

    if compared == 0:
        failures.append("no sim or bound gate was compared - the gate gated nothing")
    return lines, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument("--current", required=True, help="freshly produced JSON")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    bench = current["bench"]
    if bench != baseline["bench"]:
        sys.exit(f"bench_compare: baseline is '{baseline['bench']}' but current is '{bench}'"
                 f" - wrong file pairing?")

    lines, failures = compare(baseline, current)
    print(f"bench_compare: {bench}")
    for line in lines:
        print(line)
    if failures:
        print("\nFAIL: benchmark regression gate")
        for failure in failures:
            print(f"  - {failure}")
        print(f"\nIf intentional, refresh the baseline:\n  cp {args.current} {args.baseline}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
