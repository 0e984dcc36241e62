// Fault-layer overhead: the chaos-soak scenario run three ways through one
// RunSession. "fault-free" cancels the scenario's plan (`faults = none`) so
// no fault machinery is armed at all; "armed-idle" swaps in a single clause
// that never fires inside the horizon, isolating the pure cost of carrying
// an armed FaultPhase through every tick; "chaos" is the scenario's full
// baked-in plan (hotplug churn, thermal spikes, P-state clamps).
//
// The bench asserts the fault-layer contract in-process as checks: an
// armed-but-idle plan must leave the simulated physics bit-identical to the
// fault-free run (the fault columns are the only difference) and fire
// nothing, the chaos plan must fire, and the fault-free row must carry no
// fault columns. What makes idle overhead visible is a same-run ratio: the
// armed-idle wall rate over the fault-free wall rate, from interleaved
// timed runs. A ratio below its floor means the armed fault layer started
// costing ticks it did not before, on any runner; the absolute rates
// (each plan's median run) are informational.
//
// Writes BENCH_chaos.json (bench/harness.h schema: per row simulated
// throughput, wall rate and fault counters). CI gates it against
// bench/baselines/ with tools/bench_compare.py.
//
//   $ bench_chaos_overhead [--duration=20000] [--threads=0] [--out=BENCH_chaos.json]

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/api/run_session.h"

namespace {

// One clause, parked far past any horizon this bench runs: the FaultPhase
// is armed (skip-ahead stays bounded, the ledger ticks) but never reacts.
constexpr const char kNeverFiring[] = "off:0@900000000";

// Every plan runs this many times, the plans interleaved round by round.
// The ratio is the median of the per-round ratios: the two runs of a round
// are adjacent in time, so a host whose speed drifts slows both alike, and
// the median drops the round one of them was preempted in.
constexpr int kTimedRounds = 5;

// Armed-idle over fault-free wall rate: 0.86-1.01 (median 0.90) over 20
// runs on a 4-core Xeon (Release, --duration=20000 --threads=1). A spin
// injected into every armed tick reads 0.74-0.76 at about a fifth more cost
// per tick and 0.65-0.68 at about a third more, so the floor trips on both.
constexpr double kArmedIdleMinRateRatio = 0.78;

struct Plan {
  std::string name;
  const char* faults;  // nullptr = inherit the scenario's plan
};
}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags =
      eas::bench::ParseFlags(argc, argv, {"duration", "threads", "out"});
  const eas::Tick duration = flags.GetInt("duration", 20'000, 0);
  const std::size_t threads = static_cast<std::size_t>(flags.GetInt("threads", 0, 0));
  const std::string out = flags.GetString("out", "BENCH_chaos.json");

  const Plan plans[] = {
      {"fault-free", "none"},
      {"armed-idle", kNeverFiring},
      {"chaos", nullptr},
  };

  eas::RunSession session(threads);

  std::printf("== chaos overhead: chaos-soak x 3 fault plans, %lld ticks ==\n\n",
              static_cast<long long>(duration));

  std::vector<eas::ResolvedRequest> requests;
  for (const Plan& plan : plans) {
    eas::RunRequest request = eas::RunRequestForScenario("chaos-soak");
    request.name = plan.name;
    if (plan.faults != nullptr) {
      request.faults = plan.faults;
    }
    if (duration > 0) {
      request.duration_s = static_cast<double>(duration) / 1000.0;
    }
    auto resolved = eas::ResolveRunRequest(request);
    if (!resolved.ok()) {
      std::fprintf(stderr, "resolve %s: %s\n", plan.name.c_str(),
                   resolved.error().Render().c_str());
      return 1;
    }
    requests.push_back(std::move(*resolved));
  }

  std::vector<eas::RunRecord> records(requests.size());
  // seconds[plan][round]
  std::vector<std::vector<double>> seconds(requests.size());
  const eas::bench::Stopwatch bench_clock;
  for (int round = 0; round < kTimedRounds; ++round) {
    for (std::size_t p = 0; p < requests.size(); ++p) {
      const std::vector<eas::ResolvedRequest> batch = {requests[p]};
      const eas::bench::Stopwatch clock;
      std::vector<eas::RunRecord> ran = session.Run(batch);
      seconds[p].push_back(clock.Seconds());
      if (ran.size() != 1) {
        std::fprintf(stderr, "%s: expected 1 record, got %zu\n", plans[p].name.c_str(),
                     ran.size());
        return 1;
      }
      if (round == 0) {
        records[p] = std::move(ran.front());
      }
    }
  }
  std::vector<double> wall_rates;
  for (const std::vector<double>& runs : seconds) {
    wall_rates.push_back(
        eas::bench::Ratio(static_cast<double>(duration), eas::bench::Median(runs)));
  }
  std::vector<double> round_ratios;
  for (int round = 0; round < kTimedRounds; ++round) {
    round_ratios.push_back(eas::bench::Ratio(seconds[0][round], seconds[1][round]));
  }
  const double armed_idle_rate_ratio = eas::bench::Median(round_ratios);

  // The armed-but-idle contract: a plan that never fires must leave every
  // simulated quantity bit-identical to the fault-free run - the fault
  // columns are bookkeeping, not physics.
  const eas::RunResult& clean = records[0].result;
  const eas::RunResult& idle = records[1].result;
  const bool identical_physics = clean.Throughput() == idle.Throughput() &&
                                 clean.AverageThrottledFraction() ==
                                     idle.AverageThrottledFraction() &&
                                 clean.AverageFrequencyMultiplier() ==
                                     idle.AverageFrequencyMultiplier();

  eas::bench::Report report("chaos_overhead");
  report.Config("scenario", "chaos-soak")
      .Config("duration_ticks", duration)
      .Config("threads", session.runner().num_threads())
      .Config("build_type", eas::bench::kBuildType)
      .Info("wall_seconds", bench_clock.Seconds());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const eas::RunRecord& record = records[i];
    const std::optional<std::int64_t>& fired = record.result.faults_fired;
    std::printf("  %-12s %9.1f work-ticks/s  %10.0f wall-ticks/s  %lld faults\n",
                record.spec.name.c_str(), record.result.Throughput(), wall_rates[i],
                static_cast<long long>(fired.value_or(0)));
    eas::bench::Row row(record.spec.name);
    if (fired.has_value()) {
      row.Info("faults_fired", *fired);
    }
    if (record.result.offline_cpu_ticks.has_value()) {
      row.Info("offline_cpu_ticks", *record.result.offline_cpu_ticks);
    }
    row.Info("wall_ticks_per_second", wall_rates[i]).Sim("throughput", record.result.Throughput());
    if (record.spec.name == "fault-free") {
      row.Check("no_fault_columns", !fired.has_value());
    } else if (record.spec.name == "armed-idle") {
      row.AtLeast("rate_vs_fault_free", armed_idle_rate_ratio, kArmedIdleMinRateRatio)
          .Check("identical_physics", identical_physics)
          .Check("fires_nothing", fired == 0);
    } else {
      row.Check("fires_faults", fired.value_or(0) > 0);
    }
    report.Add(row);
  }
  std::printf("\n  armed-idle / fault-free wall rate: %.3f\n", armed_idle_rate_ratio);
  return report.Write(out);
}
