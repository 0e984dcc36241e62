#!/usr/bin/env python3
"""Benchmark regression gate: diff a fresh BENCH_*.json against a committed baseline.

Usage:
    bench_compare.py --baseline bench/baselines/BENCH_tick_hot_path.json \
                     --current build/BENCH_tick_hot_path.json [--threshold 0.25]

Compares the throughput-style metrics of the known bench formats and
exits non-zero when the current run regresses by more than the threshold
(default 25%, overridable via --threshold or the BENCH_COMPARE_THRESHOLD
environment variable - CI runners are noisy, calibrate there, not here):

  tick_hot_path:  engine_ticks_per_second per named row (the population rows
                  plus the sparse_idle skip-ahead row), and every row's
                  bit-identity cross-check (engine vs scan, skip vs naive)
                  must still report identical states. The sparse_idle row's
                  in-run speedup (skip-ahead vs naive ticking, measured in
                  the same process) must also stay at or above a fixed
                  floor - a ratio that means the same on any runner, so it
                  needs no baseline.
  sweep_scaling:  single_thread_ticks_per_second, and the sweep must still be
                  deterministic across thread counts.
  governor_sweep: simulated throughput (work-ticks/s) per governor x policy
                  row - deterministic simulation output, so rows are
                  comparable across machines and gate at the tighter of the
                  global threshold and 1% - plus the DVFS-columns presence
                  rule (governed rows carry avg_frequency_cpu*, pure-hlt
                  "none" rows must not).
  cluster_scale:  ticks/s per tick-pipeline row and balance passes/s per
                  balance row at 1k CPUs, plus the worker-count bit-identity
                  and sublinear-balance invariants.
  serve_throughput: requests/s per execution-path row (warm in-process
                  service, warm socket daemon, fork-per-run eastool), plus
                  every row's byte-identity cross-check against the offline
                  JSONL replay.
  chaos_overhead: chaos-soak under three fault plans - fault-free,
                  armed-but-never-firing, full chaos. Simulated throughput
                  gates tight (deterministic rows), wall ticks/s gates at
                  the global threshold (the armed-idle wall rate is the
                  fault layer's idle cost), plus three invariants: the
                  armed-idle run leaves physics bit-identical, the chaos
                  run actually fires faults, and the fault-free row never
                  grows fault columns.

Row sets compare asymmetrically: a baseline row missing from the current run
fails (a gated metric disappeared), while a current-run row absent from the
baseline is warned and skipped - new rows gate only after the baseline is
refreshed.

Files are either one JSON document (tick_hot_path, sweep_scaling) or JSONL
as the result sinks write it (governor_sweep: a header object with "bench",
one object per run keyed by "name", optional trailer objects merged into
the header).

Only regressions gate; improvements are reported and pass. To refresh a
baseline after an intentional change, copy the current file over the
committed one (the gate prints the exact command).

Stdlib only - no third-party imports.
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        sys.exit(f"bench_compare: cannot read {path}: {error}")
    try:
        return json.loads(text)
    except ValueError:
        pass  # not a single document - try JSONL
    merged = {"runs": []}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as error:
            sys.exit(f"bench_compare: {path}:{number}: bad JSON line: {error}")
        if "name" in obj:
            merged["runs"].append(obj)
        else:
            merged.update(obj)  # header/trailer metadata
    if "bench" not in merged:
        sys.exit(f"bench_compare: {path} is neither a bench JSON document nor bench JSONL")
    return merged


class Gate:
    """Collects metric comparisons and renders the verdict."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.failures = []
        self.lines = []
        self.rates_compared = 0

    def config(self, name, baseline, current):
        """Run-configuration fields must match exactly - ticks/s measured
        under different flags are not comparable, and silently gating
        nothing is worse than failing loudly."""
        self.lines.append(f"  config {name}: baseline {baseline}, current {current}")
        if baseline != current:
            self.failures.append(
                f"config mismatch on '{name}': baseline ran with {baseline}, current with "
                f"{current} - align the bench flags or refresh the baseline"
            )

    def rows(self, baseline_names, current_names):
        """Row-set comparison, asymmetric on purpose: a row the baseline
        gated that vanished from the current run is a failure (a metric
        silently stopped being measured), but a row the current run added
        that the baseline has never seen is only warned and skipped - a
        bench growing a new row must not fail every checkout until the
        baseline is refreshed."""
        baseline_names = set(baseline_names)
        current_names = set(current_names)
        missing = sorted(baseline_names - current_names)
        if missing:
            self.failures.append(
                f"rows missing from current run: {', '.join(missing)} - "
                f"a gated metric is no longer measured"
            )
        for name in sorted(current_names - baseline_names):
            self.lines.append(
                f"  row '{name}': not in baseline; skipped (refresh the baseline to gate it)"
            )

    def rate(self, name, baseline, current, threshold=None):
        """`threshold` overrides the gate-wide tolerance for this metric -
        deterministic metrics gate much tighter than wall-clock ones."""
        if baseline <= 0:
            self.lines.append(f"  {name}: baseline {baseline:.0f} not positive; skipped")
            return
        if threshold is None:
            threshold = self.threshold
        self.rates_compared += 1
        change = (current - baseline) / baseline
        verdict = "ok"
        if change < -threshold:
            verdict = "REGRESSION"
            self.failures.append(
                f"{name}: {baseline:.0f} -> {current:.0f} ({change:+.1%}, "
                f"limit -{threshold:.0%})"
            )
        self.lines.append(f"  {name}: {baseline:.0f} -> {current:.0f} ({change:+.1%}) {verdict}")

    def floor(self, name, value, minimum):
        """A ratio measured within one run (an optimized path against its
        reference, same process, same machine) must not fall below a fixed
        floor. Unlike an absolute rate it is portable across runners, so it
        gates without a baseline."""
        verdict = "ok" if value >= minimum else "BELOW FLOOR"
        self.lines.append(f"  {name}: {value:.2f}x (floor {minimum:.0f}x) {verdict}")
        if value < minimum:
            self.failures.append(f"{name}: {value:.2f}x is below its {minimum:.0f}x floor")

    def invariant(self, name, holds):
        self.lines.append(f"  {name}: {'ok' if holds else 'VIOLATED'}")
        if not holds:
            self.failures.append(f"{name} no longer holds")


# Skip-ahead vs naive ticking on the sparse_idle row, both measured in the
# same bench process: ~20-30x with the closed-form kernel's scalar loops,
# ~60x with its register lanes, ~1x if the fast path stops engaging.
SPARSE_IDLE_MIN_SPEEDUP = 10.0


def compare_tick_hot_path(baseline, current, gate):
    # Wall-clock ticks/s depend on the measurement conditions, so the run
    # configuration must match before any rate is comparable.
    for field in ("ticks", "sparse_ticks", "threads", "build_type"):
        gate.config(field, baseline.get(field), current.get(field))
    base_rows = {row["name"]: row for row in baseline.get("populations", [])}
    gate.rows(base_rows, [row["name"] for row in current.get("populations", [])])
    for row in current.get("populations", []):
        name = row["name"]
        if name == "sparse_idle":
            gate.floor(f"speedup[{name}]", row.get("speedup", 0.0), SPARSE_IDLE_MIN_SPEEDUP)
        base = base_rows.get(name)
        if base is None:
            continue  # warned and skipped via the rows check
        gate.rate(
            f"engine_ticks_per_second[{name}]",
            base["engine_ticks_per_second"],
            row["engine_ticks_per_second"],
        )
        gate.invariant(f"bit-identical states[{name}]", row.get("identical", False))


def compare_sweep_scaling(baseline, current, gate):
    # threads and build_type shape the wall-clock numbers as much as the
    # sweep shape does - a debug run or a different thread count against a
    # release baseline must refuse, not silently "pass".
    for field in ("runs", "duration_ticks", "threads", "build_type"):
        gate.config(field, baseline.get(field), current.get(field))
    gate.rate(
        "single_thread_ticks_per_second",
        baseline["single_thread_ticks_per_second"],
        current["single_thread_ticks_per_second"],
    )
    gate.invariant(
        "deterministic_across_threads", current.get("deterministic_across_threads", False)
    )


def compare_governor_sweep(baseline, current, gate):
    # Simulated throughput is deterministic, so rows gate at the tighter of
    # the global threshold and 1% - enough slack to absorb floating-point
    # jitter across compilers, tight enough that a real behavioral shift
    # (the wall-clock benches' 25% would hide a -20% scheduling regression)
    # fails loudly.
    threshold = min(gate.threshold, 0.01)
    for field in ("scenario", "duration_ticks"):
        gate.config(field, baseline.get(field), current.get(field))
    base_rows = {row["name"]: row for row in baseline.get("runs", [])}
    gate.rows(base_rows, [row["name"] for row in current.get("runs", [])])
    for row in current.get("runs", []):
        name = row["name"]
        base = base_rows.get(name)
        if base is None:
            continue  # warned and skipped via the rows check
        gate.rate(f"throughput[{name}]", base["throughput"], row["throughput"], threshold)
        # The DVFS presence rule: governed rows carry the avg_frequency
        # columns, pure-hlt "none" rows must not grow them.
        governed = not name.startswith("none/")
        gate.invariant(
            f"dvfs columns {'present' if governed else 'absent'}[{name}]",
            ("avg_frequency_cpu0" in row) == governed,
        )


def compare_cluster_scale(baseline, current, gate):
    # Wall-clock ticks/s and balance passes/s, so the run shape must match.
    # What gates is each row's own throughput against the baseline plus the
    # sublinear balance scaling the bench asserts.
    for field in ("ticks", "balance_sweeps", "threads", "build_type"):
        gate.config(field, baseline.get(field), current.get(field))
    base_rows = {row["name"]: row for row in baseline.get("rows", [])}
    gate.rows(base_rows, [row["name"] for row in current.get("rows", [])])
    for row in current.get("rows", []):
        name = row["name"]
        base = base_rows.get(name)
        if base is None:
            continue  # warned and skipped via the rows check
        if "ticks_per_second" in row:
            gate.rate(
                f"ticks_per_second[{name}]",
                base.get("ticks_per_second", 0),
                row["ticks_per_second"],
            )
        elif "passes_per_second" in row:
            gate.rate(
                f"passes_per_second[{name}]",
                base.get("passes_per_second", 0),
                row["passes_per_second"],
            )
        elif name == "balance_scaling":
            gate.invariant("balance per-pass cost sublinear", row.get("sublinear", False))


def compare_serve_throughput(baseline, current, gate):
    # Requests/s through the resident service (in-process and over the
    # socket) vs fork-per-run eastool. All three are wall-clock, so the run
    # shape must match; what gates beyond the rates is the byte-identity
    # cross-check every row carries - a "faster" serve path that streams
    # different bytes than the offline replay is a correctness bug, not a
    # win.
    for field in ("requests", "duration_ms", "threads", "build_type"):
        gate.config(field, baseline.get(field), current.get(field))
    base_rows = {row["name"]: row for row in baseline.get("rows", [])}
    gate.rows(base_rows, [row["name"] for row in current.get("rows", [])])
    for row in current.get("rows", []):
        name = row["name"]
        base = base_rows.get(name)
        if base is None:
            continue  # warned and skipped via the rows check
        gate.rate(
            f"requests_per_second[{name}]",
            base["requests_per_second"],
            row["requests_per_second"],
        )
        gate.invariant(
            f"byte-identical records[{name}]", row.get("identical", False)
        )


def compare_chaos_overhead(baseline, current, gate):
    # Three rows over the same scenario and horizon. Simulated throughput is
    # deterministic, so it gates at the tighter of the global threshold and
    # 1% (same rationale as the governor sweep); wall ticks/s is
    # machine-bound and gates at the global threshold - the armed-idle row's
    # wall rate is the one that catches a fault layer that starts costing
    # ticks while doing nothing.
    deterministic = min(gate.threshold, 0.01)
    for field in ("scenario", "duration_ticks", "threads", "build_type"):
        gate.config(field, baseline.get(field), current.get(field))
    base_rows = {row["name"]: row for row in baseline.get("runs", [])}
    gate.rows(base_rows, [row["name"] for row in current.get("runs", [])])
    for row in current.get("runs", []):
        name = row["name"]
        base = base_rows.get(name)
        if base is None:
            continue  # warned and skipped via the rows check
        gate.rate(f"throughput[{name}]", base["throughput"], row["throughput"], deterministic)
        gate.rate(
            f"wall_ticks_per_second[{name}]",
            base["wall_ticks_per_second"],
            row["wall_ticks_per_second"],
        )
        if name == "armed-idle":
            gate.invariant(
                "armed-but-idle plan leaves physics identical",
                row.get("identical_physics", False),
            )
            gate.invariant("armed-idle fires nothing", row.get("faults_fired", -1) == 0)
        elif name == "chaos":
            gate.invariant("chaos plan fires faults", row.get("faults_fired", 0) > 0)
        elif name == "fault-free":
            gate.invariant("fault columns absent[fault-free]", "faults_fired" not in row)


COMPARATORS = {
    "tick_hot_path": compare_tick_hot_path,
    "sweep_scaling": compare_sweep_scaling,
    "governor_sweep": compare_governor_sweep,
    "cluster_scale": compare_cluster_scale,
    "serve_throughput": compare_serve_throughput,
    "chaos_overhead": compare_chaos_overhead,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument("--current", required=True, help="freshly produced JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_COMPARE_THRESHOLD", "0.25")),
        help="maximum tolerated relative regression (default 0.25 = 25%%)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    bench = current.get("bench")
    if bench != baseline.get("bench"):
        sys.exit(
            f"bench_compare: baseline is '{baseline.get('bench')}' "
            f"but current is '{bench}' - wrong file pairing?"
        )
    comparator = COMPARATORS.get(bench)
    if comparator is None:
        sys.exit(f"bench_compare: no comparator for bench '{bench}' "
                 f"(known: {', '.join(sorted(COMPARATORS))})")

    gate = Gate(args.threshold)
    comparator(baseline, current, gate)
    if gate.rates_compared == 0:
        gate.failures.append("no throughput metrics were compared - the gate gated nothing")

    print(f"bench_compare: {bench} (threshold {gate.threshold:.0%})")
    for line in gate.lines:
        print(line)
    if gate.failures:
        print("\nFAIL: benchmark regression gate")
        for failure in gate.failures:
            print(f"  - {failure}")
        print(
            f"\nIf intentional, refresh the baseline:\n"
            f"  cp {args.current} {args.baseline}"
        )
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
