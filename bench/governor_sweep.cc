// Governor x policy sweep: every registered frequency governor under every
// registered balancing policy, over the governor-comparison scenario (40 W
// cap, hlt backstop armed), described as RunRequests and fanned through one
// RunSession. This is the one-command energy-balancing-under-DVFS vs
// hlt-throttling experiment: the "none" rows are the paper's pure-hlt
// baseline, the governed rows show how much halting each governor trades
// for lower frequency.
//
// Writes BENCH_governors.json (bench/harness.h schema): one row per run
// carrying its record (every metric-schema scalar plus the request that
// reproduces it). CI gates it against bench/baselines/ with
// tools/bench_compare.py - the simulation is deterministic, so the per-row
// throughput values are comparable across machines.
//
//   $ bench_governor_sweep [--duration=40000] [--threads=0] [--out=BENCH_governors.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/api/run_session.h"
#include "src/core/policy_registry.h"
#include "src/freq/governor_registry.h"

int main(int argc, char** argv) {
  const eas::FlagParser flags =
      eas::bench::ParseFlags(argc, argv, {"duration", "threads", "out"});
  const eas::Tick duration = flags.GetInt("duration", 40'000, 0);
  const std::size_t threads = static_cast<std::size_t>(flags.GetInt("threads", 0, 0));
  const std::string out = flags.GetString("out", "BENCH_governors.json");

  const std::vector<std::string> governors = eas::FrequencyGovernorRegistry::Global().Names();
  const std::vector<std::string> policies = eas::BalancePolicyRegistry::Global().Names();

  // Every row is a declarative request over the governor-comparison
  // scenario. Pure-mechanism rows: hlt only on the "none" rows, the
  // governor alone otherwise - with the backstop armed the gate absorbs
  // every overshoot before a stepwise governor can react, and all rows
  // collapse onto the hlt baseline.
  std::vector<eas::ResolvedRequest> resolved;
  for (const std::string& governor : governors) {
    for (const std::string& policy : policies) {
      eas::RunRequest request = eas::RunRequestForScenario("governor-comparison");
      request.name = governor + "/" + policy;
      request.governor = governor;
      request.policy = policy;
      request.throttle = governor == "none";
      if (duration > 0) {
        request.duration_s = static_cast<double>(duration) / 1000.0;
      }
      auto r = eas::ResolveRunRequest(request);
      if (!r.ok()) {
        std::fprintf(stderr, "resolve %s: %s\n", request.name.c_str(),
                     r.error().Render().c_str());
        return 1;
      }
      resolved.push_back(std::move(*r));
    }
  }

  std::printf("== governor sweep: %zu governors x %zu policies ==\n\n", governors.size(),
              policies.size());

  eas::RunSession session(threads);
  const eas::bench::Stopwatch clock;
  const std::vector<eas::RunRecord> records = session.Run(resolved);
  const double elapsed = clock.Seconds();

  eas::bench::Report report("governor_sweep");
  report.Config("scenario", "governor-comparison")
      .Config("duration_ticks", duration)
      .Info("threads", session.runner().num_threads())
      .Info("build_type", eas::bench::kBuildType)
      .Info("wall_seconds", elapsed);
  for (const eas::RunRecord& record : records) {
    std::printf("  %-32s %9.1f work-ticks/s  %5.2f%% throttled  %.3fx avg freq\n",
                record.spec.name.c_str(), record.result.Throughput(),
                record.result.AverageThrottledFraction() * 100,
                record.result.AverageFrequencyMultiplier());
    // The DVFS presence rule: governed rows carry the avg_frequency columns,
    // pure-hlt "none" rows must not grow them.
    const bool governed = record.spec.config.frequency_governor != "none";
    report.Add(eas::bench::Row(record.spec.name)
                   .Record(eas::JsonlRecordLine(record))
                   .Sim("throughput", record.result.Throughput())
                   .Check("dvfs_columns_iff_governed",
                          record.result.average_frequency.empty() != governed));
  }
  return report.Write(out);
}
