// Tick hot-path benchmark: engine ticks/sec as the task population grows,
// plus the quiescent-span skip-ahead rate on a sparse workload.
//
// The event-driven engine (heap wake queue, arrival queue, cached balance
// aggregates, active-mask sampling) must hold its tick rate roughly constant
// as tasks accumulate; the scan-based loop it replaced degrades linearly in
// the number of tasks ever spawned. This bench drives both over the same
// sleeper-heavy workload (interactive daemons that spend most ticks blocked,
// the worst case for the wake scan) at 100 / 1k / 10k tasks, then measures
// skip-ahead vs naive ticking on a cron-style mostly-idle workload where
// the machine is quiescent ~99% of ticks, then times the PMC noise model's
// normal draws block-filled (Rng::FillGaussians, as every task's
// NormalStream draws them) against one NextGaussian() call per draw, and
// writes the ticks/sec table plus the speedups to BENCH_tick_hot_path.json.
//
//   $ bench_tick_hot_path [--ticks=2000] [--out=BENCH_tick_hot_path.json]
//
// The scan reference (src/sim/scan_reference.h) reproduces the
// pre-event-queue engine tick exactly (same phase components, wakeups via a
// task-table scan), so the bench also cross-checks that both loops finish in
// bit-identical states; the sparse row cross-checks that skip-ahead and the
// naive tick loop do too (the engine's bit-identity contract), and the
// noise row that both draw loops produce the same values, bit for bit.
//
// The report (bench/harness.h) fails on any row that is not bit-identical
// and holds three same-process speedups above fixed floors: engine vs scan
// reference at 10k tasks, skip-ahead vs naive on the sparse row, and block
// vs sequential noise draws. The absolute tick rates are informational;
// perfbench (BENCHMARK.json) gates rates.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/api/run_request.h"
#include "src/base/rng.h"
#include "src/counters/energy_model.h"
#include "src/sim/scan_reference.h"
#include "src/sim/simulation_engine.h"
#include "src/workloads/programs.h"

namespace {

using eas::Tick;
using eas::bench::Ratio;

// The population rows time engine and scan reference this many times,
// interleaved round by round. The speedup is the median of the per-round
// ratios: the two passes of a round are adjacent in time, and the median
// drops a round the host preempted.
constexpr int kTimedRounds = 5;

// Engine vs scan reference at 10k tasks, both measured in this process, the
// median of kTimedRounds interleaved rounds: 7.6-8.4 over 20 runs on a
// 4-core Xeon (Release, --ticks=20000). The engine's wake and arrival queues
// are what keep its rate flat as tasks accumulate: a per-tick pass over
// every task injected into the wake path reads 0.28-0.29, and a fixed cost
// that makes the engine's tick about 2.4x slower read 2.4-2.8 timed once.
constexpr double kTasks10000MinSpeedup = 4.0;
constexpr int kGatedPopulation = 10'000;

// Skip-ahead vs naive ticking on the sparse_idle row, both measured in this
// process: ~20-30x with the closed-form kernel's scalar loops, ~60x with its
// register lanes, ~1x if the fast path stops engaging.
constexpr double kSparseIdleMinSpeedup = 10.0;

// Block-filled vs sequential normal draws on the noise_draws row, both
// measured in this process: 1.12-1.25x over 12 runs on a 4-core Xeon
// (Release, --ticks=20000). Below 1.0 the block filler has become a
// pessimisation of the draws it exists to speed up.
constexpr double kNoiseDrawsMinSpeedup = 1.0;
// Normals drawn per timed pass, per --ticks: 2.56M at CI's 20000 ticks.
constexpr std::size_t kNoiseDrawsPerTick = 128;

eas::MachineConfig BenchConfig() {
  // The bench machine as a request (paper topology, 60 W cap, seed 7), then
  // oracle estimator weights so the timing measures the engine, not
  // calibration.
  auto resolved = eas::ResolveRunRequest(*eas::ParseRunRequest("max-power = 60; seed = 7"));
  if (!resolved.ok()) {
    std::fprintf(stderr, "resolve: %s\n", resolved.error().Render().c_str());
    std::exit(1);
  }
  eas::MachineConfig config = resolved->specs.front().config;
  config.estimator_weights = eas::EnergyModel::Default().weights();
  return config;
}

// Mostly-sleeping daemons plus a small always-running floor: the population
// a consolidation host carries, and the worst case for a per-task wake scan.
void SpawnSleeperHeavy(eas::SimulationState& state, const eas::ProgramLibrary& library,
                       int tasks) {
  for (int i = 0; i < tasks; ++i) {
    switch (i % 8) {
      case 0:
        state.Spawn(library.memrw(), 0);
        break;
      case 1:
      case 2:
      case 3:
        state.Spawn(library.bash(), 0);
        break;
      default:
        state.Spawn(library.sshd(), 0);
        break;
    }
  }
}

// Cron-style program for the sparse row: ~12-tick bursts separated by ~6000
// ticks of sleep, so a handful of tasks leaves the machine quiescent (no
// task runnable anywhere) on ~99% of ticks - the regime skip-ahead turns
// into closed-form spans.
eas::Program MakeCronProgram(const eas::EnergyModel& model) {
  eas::EventRates signature{};
  signature.fill(1.0);
  eas::Phase burst;
  burst.rates = model.RatesForTargetPower(signature, 35.0);
  burst.mean_duration = 12;
  burst.duration_jitter = 0.1;
  burst.mean_sleep_after = 6'000;
  burst.rate_noise = 0.02;
  return eas::Program("cron", 0xc407, {burst}, /*total_work_ticks=*/0);
}

struct Measurement {
  std::string name;
  int tasks = 0;
  Tick ticks = 0;
  double engine_ticks_per_second = 0.0;  // the optimized path
  double reference_ticks_per_second = 0.0;
  const char* reference_key = "scan_ticks_per_second";
  double speedup = 0.0;
  bool identical = false;
};

// Engine and scan reference alternate for kTimedRounds rounds, each on fresh
// states. The speedup is the median of the per-round ratios.
Measurement MeasurePopulation(const eas::ProgramLibrary& library, int tasks, Tick ticks) {
  const eas::MachineConfig config = BenchConfig();
  std::vector<double> engine_seconds;
  std::vector<double> scan_seconds;
  std::vector<double> speedups;
  bool identical = true;
  for (int round = 0; round < kTimedRounds; ++round) {
    eas::SimulationState engine_state(config);
    eas::SimulationEngine engine(config.sched);
    SpawnSleeperHeavy(engine_state, library, tasks);
    const eas::bench::Stopwatch engine_clock;
    for (Tick t = 0; t < ticks; ++t) {
      engine.Tick(engine_state);
    }
    engine_seconds.push_back(engine_clock.Seconds());

    eas::SimulationState scan_state(config);
    eas::ScanReferenceStepper scan(config.sched);
    SpawnSleeperHeavy(scan_state, library, tasks);
    const eas::bench::Stopwatch scan_clock;
    for (Tick t = 0; t < ticks; ++t) {
      scan.Step(scan_state);
    }
    scan_seconds.push_back(scan_clock.Seconds());

    speedups.push_back(Ratio(scan_seconds.back(), engine_seconds.back()));
    identical = identical && engine_state.TotalWorkDone() == scan_state.TotalWorkDone() &&
                engine_state.TotalTaskEnergy() == scan_state.TotalTaskEnergy() &&
                engine_state.migration_count() == scan_state.migration_count();
  }

  Measurement m;
  m.name = "tasks_" + std::to_string(tasks);
  m.tasks = tasks;
  m.ticks = ticks;
  m.engine_ticks_per_second =
      Ratio(static_cast<double>(ticks), eas::bench::Median(engine_seconds));
  m.reference_ticks_per_second =
      Ratio(static_cast<double>(ticks), eas::bench::Median(scan_seconds));
  m.speedup = eas::bench::Median(speedups);
  m.identical = identical;
  return m;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// End states must match bitwise between the skip-ahead and naive runs: the
// scheduler-visible aggregates plus the analog state skip-ahead integrates
// in closed form (package temperature and true power, per-CPU thermal
// power).
bool BitIdentical(eas::SimulationState& a, eas::SimulationState& b) {
  if (!SameBits(a.TotalWorkDone(), b.TotalWorkDone()) ||
      !SameBits(a.TotalTaskEnergy(), b.TotalTaskEnergy()) ||
      a.migration_count() != b.migration_count() || a.now() != b.now()) {
    return false;
  }
  for (std::size_t phys = 0; phys < a.num_physical(); ++phys) {
    if (!SameBits(a.Temperature(phys), b.Temperature(phys)) ||
        !SameBits(a.TruePower(phys), b.TruePower(phys))) {
      return false;
    }
  }
  for (std::size_t cpu = 0; cpu < a.num_cpus(); ++cpu) {
    const int id = static_cast<int>(cpu);
    if (!SameBits(a.ThermalPower(id), b.ThermalPower(id))) {
      return false;
    }
  }
  return true;
}

Measurement MeasureSparse(const eas::EnergyModel& model, Tick ticks) {
  const eas::Program cron = MakeCronProgram(model);
  constexpr int kTasks = 4;

  eas::MachineConfig skip_config = BenchConfig();
  skip_config.skip_ahead = true;
  eas::SimulationState skip_state(skip_config);
  eas::SimulationEngine skip_engine(skip_config.sched);
  for (int i = 0; i < kTasks; ++i) {
    skip_state.Spawn(cron, 0);
  }
  const eas::bench::Stopwatch skip_clock;
  skip_engine.Advance(skip_state, ticks);
  const double skip_seconds = skip_clock.Seconds();

  eas::MachineConfig naive_config = BenchConfig();
  naive_config.skip_ahead = false;
  eas::SimulationState naive_state(naive_config);
  eas::SimulationEngine naive_engine(naive_config.sched);
  for (int i = 0; i < kTasks; ++i) {
    naive_state.Spawn(cron, 0);
  }
  const eas::bench::Stopwatch naive_clock;
  naive_engine.Advance(naive_state, ticks);
  const double naive_seconds = naive_clock.Seconds();

  Measurement m;
  m.name = "sparse_idle";
  m.tasks = kTasks;
  m.ticks = ticks;
  m.reference_key = "naive_ticks_per_second";
  m.engine_ticks_per_second = Ratio(static_cast<double>(ticks), skip_seconds);
  m.reference_ticks_per_second = Ratio(static_cast<double>(ticks), naive_seconds);
  m.speedup = Ratio(naive_seconds, skip_seconds);
  m.identical = BitIdentical(skip_state, naive_state);
  return m;
}

// Folds a draw's bits into a running digest: equal digests over the same
// number of draws mean the two loops produced the same values, bit for bit.
std::uint64_t Fold(std::uint64_t digest, double value) {
  return (digest ^ std::bit_cast<std::uint64_t>(value)) * 0x100000001b3ULL;
}

struct NoiseMeasurement {
  std::size_t draws = 0;
  double sequential_ns_per_draw = 0.0;
  double block_ns_per_draw = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

// The same stream drawn two ways: a NextGaussian() call per value, and
// 32-value blocks as a task's NormalStream draws it. The two passes
// alternate for kNoiseRounds rounds and each keeps its fastest, so one pass
// slowed by the host does not decide the speedup.
NoiseMeasurement MeasureNoiseDraws(std::size_t draws) {
  constexpr std::size_t kBlock = 32;
  constexpr std::uint64_t kSeed = 0x6e015e;
  constexpr int kNoiseRounds = 3;
  const std::size_t blocks = std::max<std::size_t>(1, draws / kBlock);

  double sequential_seconds = std::numeric_limits<double>::infinity();
  double block_seconds = std::numeric_limits<double>::infinity();
  bool identical = true;
  for (int round = 0; round < kNoiseRounds; ++round) {
    eas::Rng sequential(kSeed);
    std::uint64_t sequential_digest = 0;
    const eas::bench::Stopwatch sequential_clock;
    for (std::size_t i = 0; i < blocks * kBlock; ++i) {
      sequential_digest = Fold(sequential_digest, sequential.NextGaussian());
    }
    const double sequential_pass = sequential_clock.Seconds();

    eas::Rng block(kSeed);
    std::uint64_t block_digest = 0;
    double values[kBlock];
    const eas::bench::Stopwatch block_clock;
    for (std::size_t b = 0; b < blocks; ++b) {
      block.FillGaussians(values, kBlock);
      for (double value : values) {
        block_digest = Fold(block_digest, value);
      }
    }
    const double block_pass = block_clock.Seconds();

    sequential_seconds = std::min(sequential_seconds, sequential_pass);
    block_seconds = std::min(block_seconds, block_pass);
    identical = identical && sequential_digest == block_digest &&
                sequential.NextU64() == block.NextU64();
  }

  NoiseMeasurement m;
  m.draws = blocks * kBlock;
  const double drawn = static_cast<double>(m.draws);
  m.sequential_ns_per_draw = Ratio(sequential_seconds * 1e9, drawn);
  m.block_ns_per_draw = Ratio(block_seconds * 1e9, drawn);
  m.speedup = Ratio(sequential_seconds, block_seconds);
  m.identical = identical;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags = eas::bench::ParseFlags(argc, argv, {"ticks", "out"});
  const Tick ticks = flags.GetInt("ticks", 2'000, 1);
  const std::string out = flags.GetString("out", "BENCH_tick_hot_path.json");

  const eas::EnergyModel model = eas::EnergyModel::Default();
  const eas::ProgramLibrary library(model);
  constexpr int kPopulations[] = {100, 1'000, kGatedPopulation};
  // The sparse row advances far more simulated time per wall second (that is
  // the point), so it runs a proportionally longer span for stable timing.
  const Tick sparse_ticks = ticks * 50;

  std::printf("== tick hot path: %lld ticks per population ==\n\n",
              static_cast<long long>(ticks));
  std::printf("  %-12s  %14s  %14s  %8s  %s\n", "row", "engine tick/s", "reference",
              "speedup", "identical");

  const eas::bench::Stopwatch bench_clock;
  std::vector<Measurement> rows;
  for (int tasks : kPopulations) {
    rows.push_back(MeasurePopulation(library, tasks, ticks));
  }
  rows.push_back(MeasureSparse(model, sparse_ticks));
  const NoiseMeasurement noise =
      MeasureNoiseDraws(static_cast<std::size_t>(ticks) * kNoiseDrawsPerTick);

  eas::bench::Report report("tick_hot_path");
  report.Config("ticks", ticks)
      .Config("sparse_ticks", sparse_ticks)
      .Config("threads", 1)
      .Config("build_type", eas::bench::kBuildType)
      .Info("wall_seconds", bench_clock.Seconds());
  for (const Measurement& m : rows) {
    std::printf("  %-12s  %14.0f  %14.0f  %7.2fx  %s\n", m.name.c_str(),
                m.engine_ticks_per_second, m.reference_ticks_per_second, m.speedup,
                m.identical ? "yes" : "NO");
    eas::bench::Row row(m.name);
    row.Info("tasks", m.tasks)
        .Info("ticks", m.ticks)
        .Info("engine_ticks_per_second", m.engine_ticks_per_second)
        .Info(m.reference_key, m.reference_ticks_per_second);
    if (m.name == "sparse_idle") {
      row.AtLeast("speedup", m.speedup, kSparseIdleMinSpeedup);
    } else if (m.tasks == kGatedPopulation) {
      row.AtLeast("speedup", m.speedup, kTasks10000MinSpeedup);
    } else {
      row.Info("speedup", m.speedup);
    }
    report.Add(row.Check("identical", m.identical));
  }
  std::printf("  %-12s  %11.1f ns/draw block vs %.1f sequential  %7.2fx  %s\n",
              "noise_draws", noise.block_ns_per_draw, noise.sequential_ns_per_draw,
              noise.speedup, noise.identical ? "yes" : "NO");
  eas::bench::Row noise_row("noise_draws");
  noise_row.Info("draws", noise.draws)
      .Info("sequential_ns_per_draw", noise.sequential_ns_per_draw)
      .Info("block_ns_per_draw", noise.block_ns_per_draw)
      .AtLeast("speedup", noise.speedup, kNoiseDrawsMinSpeedup)
      .Check("identical", noise.identical);
  report.Add(noise_row);
  return report.Write(out);
}
