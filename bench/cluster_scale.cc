// Cluster-scale benchmark: the tick pipeline and the hierarchical balance
// pass at 1k CPUs.
//
// A 1024-logical machine (five-level topology 2:4:16:4:2 - 512 physical
// packages) carries a sleeper-heavy consolidation population, and the
// tick_1024 row times the engine's tick over it. Its ticks/s is
// informational: no same-run reference exists for it, and perfbench
// (BENCHMARK.json) gates absolute rates.
//
// The balance rows probe the hierarchical balancer directly: full
// policy->Balance() sweeps over every CPU at 128 and at 1024 CPUs, the
// same number of passes at each size, cache invalidated between sweeps,
// the two sizes timed in alternating rounds.
// With per-domain aggregate rollups one pass costs O(fanout x depth), so
// the per-pass cost must stay near-constant as the machine grows 8x; the
// balance_scaling row bounds the measured ratio below half the CPU ratio
// (< 4x for 8x the CPUs) and above a floor a working clock always clears.
//
//   $ bench_cluster_scale [--ticks=2000] [--out=BENCH_cluster_scale.json]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/api/run_request.h"
#include "src/core/policy_registry.h"
#include "src/counters/energy_model.h"
#include "src/sim/simulation_engine.h"
#include "src/workloads/programs.h"

namespace {

using eas::Tick;
using eas::bench::Ratio;

// 2 racks x 4 boards x 16 nodes x 4 packages x SMT-2 = 512 physical, 1024
// logical - the ISSUE's 1k-CPU point. The balance probe's small machine is
// the same shape shrunk to 64 physical / 128 logical so only the width
// changes, not the tree depth.
constexpr const char kClusterTopology[] = "2:4:16:4:2";
constexpr const char kSmallTopology[] = "2:2:4:4:2";

// The two balance probes alternate this many times, and the cost ratio is
// the median of the per-round ratios: a round's two timings are adjacent in
// time, and the median drops a round the host preempted.
constexpr int kTimedRounds = 5;

// Floor of the per-pass cost ratio (1024-CPU over 128-CPU pass cost), whose
// ceiling is half the CPU ratio. The median of kTimedRounds rounds read
// 1.51-1.56 over 10 runs on a 4-core Xeon (Release, --ticks=2000). A flat
// pass reading every CPU's thermal power injected into Balance() reads
// 4.6, past the ceiling; a clock that did not advance reads 0, under the
// floor.
constexpr double kMinCostRatio = 0.25;

eas::MachineConfig BenchConfig(const char* topology) {
  auto resolved = eas::ResolveRunRequest(*eas::ParseRunRequest(
      std::string("topology = ") + topology + "; max-power = 60; seed = 7"));
  if (!resolved.ok()) {
    std::fprintf(stderr, "resolve: %s\n", resolved.error().Render().c_str());
    std::exit(1);
  }
  eas::MachineConfig config = resolved->specs.front().config;
  config.estimator_weights = eas::EnergyModel::Default().weights();
  return config;
}

// The consolidation-host population, ~2 tasks per logical CPU: a memrw batch
// floor that keeps every package busy plus mostly-sleeping daemons, spread
// round-robin across the machine.
void SpawnClusterPopulation(eas::SimulationState& state, const eas::ProgramLibrary& library) {
  const int logical = static_cast<int>(state.num_cpus());
  const int tasks = logical * 2;
  for (int i = 0; i < tasks; ++i) {
    const int cpu = i % logical;
    switch (i % 8) {
      case 0:
        state.Spawn(library.memrw(), cpu);
        break;
      case 1:
      case 2:
      case 3:
        state.Spawn(library.bash(), cpu);
        break;
      default:
        state.Spawn(library.sshd(), cpu);
        break;
    }
  }
}

struct TickRow {
  std::string name;
  std::size_t cpus = 0;
  Tick ticks = 0;
  double ticks_per_second = 0.0;
};

TickRow MeasureTick(const eas::ProgramLibrary& library, Tick ticks) {
  const eas::MachineConfig config = BenchConfig(kClusterTopology);
  TickRow row;
  row.cpus = config.topology.num_logical();
  row.name = "tick_" + std::to_string(row.cpus);
  row.ticks = ticks;
  eas::SimulationState state(config);
  eas::SimulationEngine engine(config.sched);
  SpawnClusterPopulation(state, library);
  const eas::bench::Stopwatch clock;
  for (Tick t = 0; t < ticks; ++t) {
    engine.Tick(state);
  }
  row.ticks_per_second = Ratio(static_cast<double>(ticks), clock.Seconds());
  return row;
}

struct BalanceRow {
  std::string name;
  std::size_t cpus = 0;
  long long passes = 0;
  double passes_per_second = 0.0;
};

// Full balance sweeps over a settled machine, advancing the tick between
// sweeps so every sweep recomputes the per-domain aggregates instead of
// replaying the version-keyed cache. Runs whole sweeps until at least
// `passes` Balance() calls are timed.
BalanceRow MeasureBalance(const char* topology, const eas::ProgramLibrary& library,
                          long long passes, Tick warmup_ticks) {
  const eas::MachineConfig config = BenchConfig(topology);
  BalanceRow row;
  row.cpus = config.topology.num_logical();
  row.name = "balance_" + std::to_string(row.cpus);

  eas::SimulationState state(config);
  eas::SimulationEngine engine(config.sched);
  SpawnClusterPopulation(state, library);
  for (Tick t = 0; t < warmup_ticks; ++t) {
    engine.Tick(state);
  }

  auto policy = eas::BalancePolicyRegistry::Global().CreateOrThrow(
      eas::EffectiveBalancerName(config.sched), config.sched);
  const int logical = static_cast<int>(config.topology.num_logical());
  const long long sweeps = (passes + logical - 1) / logical;
  const eas::bench::Stopwatch clock;
  for (long long sweep = 0; sweep < sweeps; ++sweep) {
    for (int cpu = 0; cpu < logical; ++cpu) {
      policy->Balance(cpu, state);
    }
    state.AdvanceTick();
  }
  const double seconds = clock.Seconds();
  row.passes = sweeps * logical;
  row.passes_per_second = Ratio(static_cast<double>(row.passes), seconds);
  return row;
}

// The first round's row carrying the median rate of all rounds.
BalanceRow MedianRate(const std::vector<BalanceRow>& rounds) {
  std::vector<double> rates;
  for (const BalanceRow& row : rounds) {
    rates.push_back(row.passes_per_second);
  }
  BalanceRow row = rounds.front();
  row.passes_per_second = eas::bench::Median(rates);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags = eas::bench::ParseFlags(argc, argv, {"ticks", "out"});
  const Tick ticks = flags.GetInt("ticks", 2'000, 1);
  const std::string out = flags.GetString("out", "BENCH_cluster_scale.json");

  const eas::EnergyModel model = eas::EnergyModel::Default();
  const eas::ProgramLibrary library(model);

  std::printf("== cluster scale: %lld ticks at 1024 logical CPUs ==\n\n",
              static_cast<long long>(ticks));

  const eas::bench::Stopwatch bench_clock;

  const TickRow tick = MeasureTick(library, ticks);

  // Balance passes sized off --ticks so the smoke run stays tiny: ticks/128
  // sweeps of the large machine, and as many passes (8x the sweeps) on the
  // small one, so both sizes are timed over the same work.
  const long long passes = std::max<Tick>(2, ticks / 128) * 1024;
  const Tick warmup = std::min<Tick>(32, ticks);
  std::vector<BalanceRow> small_rounds;
  std::vector<BalanceRow> large_rounds;
  std::vector<double> cost_ratios;
  for (int round = 0; round < kTimedRounds; ++round) {
    small_rounds.push_back(MeasureBalance(kSmallTopology, library, passes, warmup));
    large_rounds.push_back(MeasureBalance(kClusterTopology, library, passes, warmup));
    cost_ratios.push_back(
        Ratio(small_rounds.back().passes_per_second, large_rounds.back().passes_per_second));
  }
  const BalanceRow balance_small = MedianRate(small_rounds);
  const BalanceRow balance_large = MedianRate(large_rounds);

  const double cpu_ratio =
      static_cast<double>(balance_large.cpus) / static_cast<double>(balance_small.cpus);
  // Per-pass cost ratio: small passes/s over large passes/s. 1.0 = constant
  // per-pass cost; cpu_ratio = per-pass cost growing linearly with machine
  // size (a flat O(cpus) scan). Sublinear means staying well under cpu_ratio.
  const double per_pass_cost_ratio = eas::bench::Median(cost_ratios);
  const double max_cost_ratio = cpu_ratio / 2.0;

  eas::bench::Report report("cluster_scale");
  report.Config("ticks", ticks)
      .Config("balance_passes", passes)
      .Config("threads", 1)
      .Config("build_type", eas::bench::kBuildType)
      .Info("wall_seconds", bench_clock.Seconds());

  std::printf("  %-12s  %6s  %14s\n", "row", "cpus", "ticks/s");
  std::printf("  %-12s  %6zu  %14.1f\n", tick.name.c_str(), tick.cpus, tick.ticks_per_second);
  report.Add(eas::bench::Row(tick.name)
                 .Info("cpus", tick.cpus)
                 .Info("ticks", tick.ticks)
                 .Info("ticks_per_second", tick.ticks_per_second));
  std::printf("\n  %-12s  %6s  %10s  %16s\n", "row", "cpus", "passes", "passes/s");
  for (const BalanceRow* row : {&balance_small, &balance_large}) {
    std::printf("  %-12s  %6zu  %10lld  %16.0f\n", row->name.c_str(), row->cpus, row->passes,
                row->passes_per_second);
    report.Add(eas::bench::Row(row->name)
                   .Info("cpus", row->cpus)
                   .Info("passes", row->passes)
                   .Info("passes_per_second", row->passes_per_second));
  }
  std::printf("\n  balance per-pass cost x%.2f for x%.0f CPUs -> %s\n", per_pass_cost_ratio,
              cpu_ratio, per_pass_cost_ratio < max_cost_ratio ? "sublinear" : "NOT SUBLINEAR");
  report.Add(eas::bench::Row("balance_scaling")
                 .Info("cpu_ratio", cpu_ratio)
                 .Between("per_pass_cost_ratio", per_pass_cost_ratio, kMinCostRatio,
                          max_cost_ratio));
  return report.Write(out);
}
