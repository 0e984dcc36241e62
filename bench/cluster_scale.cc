// Cluster-scale benchmark: the tick pipeline and the hierarchical balance
// pass at 1k CPUs.
//
// A 1024-logical machine (five-level topology 2:4:16:4:2 - 512 physical
// packages) carries a sleeper-heavy consolidation population, and the
// tick_1024 row times the engine's tick over it. The regression gate
// (tools/bench_compare.py) compares its ticks/s against the committed
// baseline measured on the same class of machine.
//
// The balance rows probe the hierarchical balancer directly: a full
// policy->Balance() sweep over every CPU at 128 and at 1024 CPUs, cache
// invalidated between sweeps. With per-domain aggregate rollups one pass
// costs O(fanout x depth), so the per-pass cost must stay near-constant as
// the machine grows 8x; the balance_scaling row asserts the measured ratio
// stays sublinear (< 4x for 8x the CPUs).
//
//   $ bench_cluster_scale [--ticks=2000] [--out=BENCH_cluster_scale.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/api/run_request.h"
#include "src/base/flags.h"
#include "src/core/policy_registry.h"
#include "src/counters/energy_model.h"
#include "src/sim/csv_export.h"
#include "src/sim/simulation_engine.h"
#include "src/workloads/programs.h"

namespace {

using eas::Tick;

#ifdef NDEBUG
constexpr const char kBuildType[] = "release";
#else
constexpr const char kBuildType[] = "debug";
#endif

// 2 racks x 4 boards x 16 nodes x 4 packages x SMT-2 = 512 physical, 1024
// logical - the ISSUE's 1k-CPU point. The balance probe's small machine is
// the same shape shrunk to 64 physical / 128 logical so only the width
// changes, not the tree depth.
constexpr const char kClusterTopology[] = "2:4:16:4:2";
constexpr const char kSmallTopology[] = "2:2:4:4:2";

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

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
  const auto start = std::chrono::steady_clock::now();
  for (Tick t = 0; t < ticks; ++t) {
    engine.Tick(state);
  }
  const double seconds = SecondsSince(start);
  row.ticks_per_second = seconds > 0.0 ? static_cast<double>(ticks) / seconds : 0.0;
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
// replaying the version-keyed cache.
BalanceRow MeasureBalance(const char* topology, const eas::ProgramLibrary& library,
                          int sweeps, Tick warmup_ticks) {
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
  const auto start = std::chrono::steady_clock::now();
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int cpu = 0; cpu < logical; ++cpu) {
      policy->Balance(cpu, state);
    }
    state.AdvanceTick();
  }
  const double seconds = SecondsSince(start);
  row.passes = static_cast<long long>(sweeps) * logical;
  row.passes_per_second = seconds > 0.0 ? static_cast<double>(row.passes) / seconds : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags(argc, argv);
  const std::vector<std::string> unknown = flags.UnknownFlags({"ticks", "out"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s (known: --ticks --out)\n",
                 unknown.front().c_str());
    return 1;
  }
  const Tick ticks = std::max<Tick>(1, flags.GetInt("ticks", 2'000));
  const std::string out = flags.GetString("out", "BENCH_cluster_scale.json");

  const eas::EnergyModel model = eas::EnergyModel::Default();
  const eas::ProgramLibrary library(model);

  std::printf("== cluster scale: %lld ticks at 1024 logical CPUs ==\n\n",
              static_cast<long long>(ticks));

  const auto bench_start = std::chrono::steady_clock::now();

  const TickRow tick = MeasureTick(library, ticks);

  // Balance sweeps sized off --ticks so the smoke run stays tiny; identical
  // sweep counts at both sizes keep the comparison clean.
  const int sweeps = static_cast<int>(std::max<Tick>(2, ticks / 128));
  const Tick warmup = std::min<Tick>(32, ticks);
  BalanceRow balance_small = MeasureBalance(kSmallTopology, library, sweeps, warmup);
  BalanceRow balance_large = MeasureBalance(kClusterTopology, library, sweeps, warmup);

  const double cpu_ratio =
      static_cast<double>(balance_large.cpus) / static_cast<double>(balance_small.cpus);
  // Per-pass cost ratio: small passes/s over large passes/s. 1.0 = constant
  // per-pass cost; cpu_ratio = per-pass cost growing linearly with machine
  // size (a flat O(cpus) scan). Sublinear means staying well under cpu_ratio.
  const double per_pass_cost_ratio =
      balance_large.passes_per_second > 0.0
          ? balance_small.passes_per_second / balance_large.passes_per_second
          : 0.0;
  const bool sublinear =
      per_pass_cost_ratio > 0.0 && per_pass_cost_ratio < cpu_ratio / 2.0;

  const double wall_seconds = SecondsSince(bench_start);

  std::printf("  %-12s  %6s  %14s\n", "row", "cpus", "ticks/s");
  std::printf("  %-12s  %6zu  %14.1f\n", tick.name.c_str(), tick.cpus, tick.ticks_per_second);
  std::printf("\n  %-12s  %6s  %10s  %16s\n", "row", "cpus", "passes", "passes/s");
  const BalanceRow* balance_rows[] = {&balance_small, &balance_large};
  for (const BalanceRow* row : balance_rows) {
    std::printf("  %-12s  %6zu  %10lld  %16.0f\n", row->name.c_str(), row->cpus, row->passes,
                row->passes_per_second);
  }
  std::printf("\n  balance per-pass cost x%.2f for x%.0f CPUs -> %s\n", per_pass_cost_ratio,
              cpu_ratio, sublinear ? "sublinear" : "NOT SUBLINEAR");

  std::string json = "{\n  \"bench\": \"cluster_scale\",\n  \"ticks\": " +
                     std::to_string(static_cast<long long>(ticks)) +
                     ",\n  \"balance_sweeps\": " + std::to_string(sweeps) +
                     ",\n  \"threads\": 1,\n  \"build_type\": \"" + kBuildType +
                     "\",\n  \"rows\": [\n";
  char entry[320];
  std::snprintf(entry, sizeof(entry),
                "    {\"name\": \"%s\", \"cpus\": %zu, \"ticks\": %lld, "
                "\"ticks_per_second\": %.1f},\n",
                tick.name.c_str(), tick.cpus, static_cast<long long>(tick.ticks),
                tick.ticks_per_second);
  json += entry;
  for (const BalanceRow* row : balance_rows) {
    std::snprintf(entry, sizeof(entry),
                  "    {\"name\": \"%s\", \"cpus\": %zu, \"passes\": %lld, "
                  "\"passes_per_second\": %.0f},\n",
                  row->name.c_str(), row->cpus, row->passes, row->passes_per_second);
    json += entry;
  }
  std::snprintf(entry, sizeof(entry),
                "    {\"name\": \"balance_scaling\", \"cpu_ratio\": %.1f, "
                "\"per_pass_cost_ratio\": %.3f, \"sublinear\": %s}\n",
                cpu_ratio, per_pass_cost_ratio, sublinear ? "true" : "false");
  json += entry;
  char tail[64];
  std::snprintf(tail, sizeof(tail), "  ],\n  \"wall_seconds\": %.4f\n}\n", wall_seconds);
  json += tail;

  if (!eas::WriteFile(out, json)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
