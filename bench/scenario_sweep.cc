// Scenario x policy sweep: every registered scenario under every registered
// balancing policy, described as canned RunRequests and fanned through one
// RunSession. The cross-product is the "does every workload still behave"
// regression net - run it per change and compare the BENCH_scenarios.json it
// writes (bench/harness.h schema, ungated: one row per run carrying its
// record, every metric-schema scalar plus the request that reproduces it).
//
//   $ bench_scenario_sweep [--duration=40000] [--threads=0] [--out=BENCH_scenarios.json]
//
// --duration overrides every scenario's tick count (0 keeps each scenario's
// own, paper-length duration).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/api/run_session.h"
#include "src/core/policy_registry.h"
#include "src/sim/scenario.h"

int main(int argc, char** argv) {
  const eas::FlagParser flags =
      eas::bench::ParseFlags(argc, argv, {"duration", "threads", "out"});
  const eas::Tick duration = flags.GetInt("duration", 40'000, 0);
  const std::size_t threads = static_cast<std::size_t>(flags.GetInt("threads", 0, 0));
  const std::string out = flags.GetString("out", "BENCH_scenarios.json");

  const std::vector<std::string> policies = eas::BalancePolicyRegistry::Global().Names();

  // The whole sweep as data: one canned request per scenario, crossed with
  // every policy. Any row's "request" field in the output replays that row
  // via `eastool --request`.
  std::vector<eas::ResolvedRequest> resolved;
  for (const eas::RunRequest& canned : eas::CannedScenarioRequests()) {
    for (const std::string& policy : policies) {
      eas::RunRequest request = canned;
      request.name = request.scenario + "/" + policy;
      request.policy = policy;
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

  std::printf("== scenario sweep: %zu scenarios x %zu policies ==\n\n",
              resolved.size() / policies.size(), policies.size());

  eas::RunSession session(threads);
  const eas::bench::Stopwatch clock;
  const std::vector<eas::RunRecord> records = session.Run(resolved);

  eas::bench::Report report("scenario_sweep");
  report.Config("duration_ticks", duration)
      .Info("threads", session.runner().num_threads())
      .Info("wall_seconds", clock.Seconds());
  for (const eas::RunRecord& record : records) {
    std::printf("  %-40s %9.1f work-ticks/s  %5lld migr  %5.2f%% throttled\n",
                record.spec.name.c_str(), record.result.Throughput(),
                static_cast<long long>(record.result.migrations),
                record.result.AverageThrottledFraction() * 100);
    report.Add(eas::bench::Row(record.spec.name).Record(eas::JsonlRecordLine(record)));
  }
  return report.Write(out);
}
