#include "src/sim/experiment.h"

#include <gtest/gtest.h>

#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace eas {
namespace {

MachineConfig QuickConfig() {
  MachineConfig config;
  config.topology = CpuTopology(1, 2, 1);
  config.cooling = CoolingProfile::Uniform(2, ThermalParams{});
  config.explicit_max_power_physical = 60.0;
  config.estimator_weights = EnergyModel::Default().weights();
  return config;
}

TEST(ExperimentTest, CollectsThermalSeriesPerCpu) {
  ProgramLibrary library(EnergyModel::Default());
  Experiment::Options options;
  options.duration_ticks = 2'000;
  options.sample_interval_ticks = 100;
  Experiment experiment(QuickConfig(), options);
  const RunResult result = experiment.Run(Workload({&library.bitcnts()}));
  EXPECT_EQ(result.thermal_power.size(), 2u);
  EXPECT_EQ(result.temperature.size(), 2u);
  EXPECT_EQ(result.thermal_power.at(0).size(), 20u);
  EXPECT_DOUBLE_EQ(result.duration_seconds, 2.0);
}

TEST(ExperimentTest, SecondRunArrivalsAreRelativeToRunStart) {
  // The machine keeps its tick counter across Run calls; a second run's
  // mid-run arrivals must still fire relative to that run's start, and
  // arrivals at or past the duration must not leak into later runs.
  ProgramLibrary library(EnergyModel::Default());
  Experiment::Options options;
  options.duration_ticks = 1'000;
  Experiment experiment(QuickConfig(), options);

  Workload first;
  first.Add(library.bitcnts());
  first.Add(library.memrw(), /*tick=*/5'000);  // past the duration: never spawns
  experiment.Run(first);
  EXPECT_EQ(experiment.machine().state().tasks().size(), 1u);

  Workload second;
  second.Add(library.memrw(), /*tick=*/100);  // run-relative, not absolute
  experiment.Run(second);
  EXPECT_EQ(experiment.machine().now(), 2'000);
  ASSERT_EQ(experiment.machine().state().tasks().size(), 2u);
  // Spawned 100 ticks into the second run: it missed 1'100 of the 2'000
  // ticks the machine has seen, so its work is well short of a full-run
  // task's but clearly nonzero.
  EXPECT_GT(experiment.machine().state().tasks()[1]->work_done_ticks(), 0.0);
  EXPECT_LT(experiment.machine().state().tasks()[1]->work_done_ticks(), 901.0);
}

TEST(ExperimentTest, RecordsTaskCpuTraceWhenAsked) {
  ProgramLibrary library(EnergyModel::Default());
  Experiment::Options options;
  options.duration_ticks = 1'000;
  options.sample_interval_ticks = 100;
  options.record_task_cpu = true;
  Experiment experiment(QuickConfig(), options);
  const RunResult result = experiment.Run(Workload({&library.bitcnts(), &library.memrw()}));
  EXPECT_EQ(result.task_cpu.size(), 2u);
  EXPECT_GT(result.task_cpu.at(0).size(), 0u);
}

TEST(ExperimentTest, ThroughputPositiveForBusyRun) {
  ProgramLibrary library(EnergyModel::Default());
  Experiment::Options options;
  options.duration_ticks = 5'000;
  Experiment experiment(QuickConfig(), options);
  const RunResult result = experiment.Run(MixedWorkload(library, 1));
  EXPECT_GT(result.Throughput(), 0.0);
  EXPECT_GT(result.work_done_ticks, 0.0);
}

TEST(ExperimentTest, ThroughputIncreaseComputation) {
  RunResult base;
  base.work_done_ticks = 100.0;
  base.duration_seconds = 1.0;
  RunResult test;
  test.work_done_ticks = 105.0;
  test.duration_seconds = 1.0;
  EXPECT_NEAR(ThroughputIncrease(base, test), 0.05, 1e-12);
}

TEST(ExperimentTest, ThroughputIncreaseZeroBaseline) {
  RunResult base;
  RunResult test;
  test.work_done_ticks = 10.0;
  test.duration_seconds = 1.0;
  EXPECT_DOUBLE_EQ(ThroughputIncrease(base, test), 0.0);
}

TEST(ExperimentTest, ThroughputIncreaseZeroWorkBaseline) {
  // A baseline that ran (positive duration) but did no work also divides by
  // zero throughput; the defined result is 0.0, not inf/NaN.
  RunResult base;
  base.work_done_ticks = 0.0;
  base.duration_seconds = 5.0;
  RunResult test;
  test.work_done_ticks = 10.0;
  test.duration_seconds = 5.0;
  EXPECT_DOUBLE_EQ(ThroughputIncrease(base, test), 0.0);
  EXPECT_DOUBLE_EQ(ThroughputIncrease(base, base), 0.0);
}

TEST(ExperimentTest, ThrottledFractionsCollected) {
  ProgramLibrary library(EnergyModel::Default());
  MachineConfig config = QuickConfig();
  config.throttling_enabled = true;
  config.explicit_max_power_physical = 40.0;
  config.sched = EnergySchedConfig::Baseline();
  Experiment::Options options;
  options.duration_ticks = 60'000;
  Experiment experiment(config, options);
  const RunResult result = experiment.Run(Workload({&library.bitcnts(), &library.bitcnts()}));
  ASSERT_EQ(result.throttled_fraction.size(), 2u);
  EXPECT_GT(result.AverageThrottledFraction(), 0.05);
}

TEST(ExperimentTest, ZeroDemandCpuReportsPackageHaltFraction) {
  // Regression: a CPU whose runqueue never held a runnable task used to
  // report 0.0 throttled even while the hlt gate halted its package every
  // tick (the per-logical counter only counts "halt blocked my task"
  // ticks). Such a CPU now reports its package's halt fraction, so
  // per-package halting stays visible on all-sleeper packages.
  ProgramLibrary library(EnergyModel::Default());
  MachineConfig config = QuickConfig();  // two single-thread packages
  config.throttling_enabled = true;
  // Below the 13.6 W idle power: every package halts from the first tick
  // and, with nothing ever executing, never cools below the release margin.
  config.explicit_max_power_physical = 10.0;
  config.sched = EnergySchedConfig::Baseline();
  Experiment::Options options;
  options.duration_ticks = 2'000;
  Experiment experiment(config, options);
  // One task: it occupies one package; the other has zero demand all run.
  const RunResult result = experiment.Run(Workload({&library.bitcnts()}));

  ASSERT_EQ(result.throttled_fraction.size(), 2u);
  const int busy_cpu = SimulationState::TaskCpu(*experiment.machine().state().tasks()[0]);
  ASSERT_GE(busy_cpu, 0);
  const int idle_cpu = 1 - busy_cpu;
  // The busy CPU's task was blocked every tick; the idle CPU reports the
  // package duty cycle (also 1.0 here), not the old misleading 0.0.
  EXPECT_DOUBLE_EQ(result.throttled_fraction[static_cast<std::size_t>(busy_cpu)], 1.0);
  EXPECT_DOUBLE_EQ(result.throttled_fraction[static_cast<std::size_t>(idle_cpu)], 1.0);
  EXPECT_DOUBLE_EQ(result.AverageThrottledFraction(), 1.0);
}

TEST(ExperimentTest, ThrottlingDisabledReportsZeroFractions) {
  // With the gate disarmed neither the demand path nor the package fallback
  // may invent throttling.
  ProgramLibrary library(EnergyModel::Default());
  MachineConfig config = QuickConfig();
  config.throttling_enabled = false;
  Experiment::Options options;
  options.duration_ticks = 1'000;
  Experiment experiment(config, options);
  const RunResult result = experiment.Run(Workload({&library.bitcnts()}));
  for (double fraction : result.throttled_fraction) {
    EXPECT_DOUBLE_EQ(fraction, 0.0);
  }
}

TEST(ExperimentTest, SpreadAfterSkipsTransient) {
  RunResult result;
  Series& a = result.thermal_power.Create("a");
  Series& b = result.thermal_power.Create("b");
  // Huge spread early, small late.
  a.Add(0, 10.0);
  b.Add(0, 60.0);
  a.Add(1'000, 40.0);
  b.Add(1'000, 42.0);
  EXPECT_NEAR(result.MaxThermalSpreadAfter(500), 2.0, 1e-9);
  EXPECT_NEAR(result.MaxThermalSpreadAfter(0), 50.0, 1e-9);
}

}  // namespace
}  // namespace eas
