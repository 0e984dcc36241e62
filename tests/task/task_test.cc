#include "src/task/task.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "src/base/rng.h"

namespace eas {
namespace {

std::unique_ptr<Program> CpuBoundProgram(Tick work = 0) {
  Phase phase;
  phase.rates[EventIndex(EventType::kUopsRetired)] = 100.0;
  phase.mean_duration = 50;
  phase.duration_jitter = 0.0;
  phase.rate_noise = 0.0;
  return std::make_unique<Program>("cpu", 1, std::vector<Phase>{phase}, work);
}

std::unique_ptr<Program> BlockingProgram() {
  Phase phase;
  phase.rates[EventIndex(EventType::kUopsRetired)] = 100.0;
  phase.mean_duration = 10;
  phase.duration_jitter = 0.0;
  phase.mean_sleep_after = 20;
  return std::make_unique<Program>("blocking", 2, std::vector<Phase>{phase}, 0);
}

std::unique_ptr<Program> TwoPhaseProgram() {
  Phase hot;
  hot.rates[EventIndex(EventType::kIntAluOps)] = 500.0;
  hot.mean_duration = 5;
  hot.duration_jitter = 0.0;
  Phase cool;
  cool.rates[EventIndex(EventType::kIntAluOps)] = 50.0;
  cool.mean_duration = 5;
  cool.duration_jitter = 0.0;
  return std::make_unique<Program>("phased", 3, std::vector<Phase>{hot, cool}, 0);
}

TEST(TaskTest, ExecuteTickEmitsPhaseRates) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  const EventVector events = task.ExecuteTick(1.0);
  EXPECT_DOUBLE_EQ(events[EventIndex(EventType::kUopsRetired)], 100.0);
  EXPECT_DOUBLE_EQ(events[EventIndex(EventType::kFpuOps)], 0.0);
}

TEST(TaskTest, SpeedFactorScalesEventsAndWork) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  const EventVector events = task.ExecuteTick(0.5);
  EXPECT_DOUBLE_EQ(events[EventIndex(EventType::kUopsRetired)], 50.0);
  EXPECT_DOUBLE_EQ(task.work_done_ticks(), 0.5);
}

TEST(TaskTest, PhaseRotation) {
  auto program = TwoPhaseProgram();
  Task task(1, program.get(), 42);
  EXPECT_EQ(task.phase_index(), 0u);
  for (int i = 0; i < 5; ++i) {
    task.ExecuteTick(1.0);
  }
  EXPECT_EQ(task.phase_index(), 1u);
  for (int i = 0; i < 5; ++i) {
    task.ExecuteTick(1.0);
  }
  EXPECT_EQ(task.phase_index(), 0u);  // loops
}

TEST(TaskTest, BlockingPhaseRequestsSleep) {
  auto program = BlockingProgram();
  Task task(1, program.get(), 42);
  Tick sleep = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(task.TakePendingSleep(), 0);
    task.ExecuteTick(1.0);
  }
  sleep = task.TakePendingSleep();
  EXPECT_GT(sleep, 0);
  // Taking it again returns 0 (consumed).
  EXPECT_EQ(task.TakePendingSleep(), 0);
}

TEST(TaskTest, WorkCompletion) {
  auto program = CpuBoundProgram(10);
  Task task(1, program.get(), 42);
  for (int i = 0; i < 9; ++i) {
    task.ExecuteTick(1.0);
    EXPECT_FALSE(task.WorkComplete());
  }
  task.ExecuteTick(1.0);
  EXPECT_TRUE(task.WorkComplete());
}

TEST(TaskTest, InfiniteProgramNeverCompletes) {
  auto program = CpuBoundProgram(0);
  Task task(1, program.get(), 42);
  for (int i = 0; i < 1000; ++i) {
    task.ExecuteTick(1.0);
  }
  EXPECT_FALSE(task.WorkComplete());
}

TEST(TaskTest, RestartCountsCompletion) {
  auto program = CpuBoundProgram(5);
  Task task(1, program.get(), 42);
  for (int i = 0; i < 5; ++i) {
    task.ExecuteTick(1.0);
  }
  EXPECT_TRUE(task.WorkComplete());
  task.RestartProgram();
  EXPECT_EQ(task.completions(), 1);
  EXPECT_FALSE(task.WorkComplete());
  EXPECT_DOUBLE_EQ(task.work_done_ticks(), 0.0);
}

TEST(TaskTest, AccountingPeriodLifecycle) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  task.BeginAccountingPeriod();
  task.AccumulateEnergy(3.0);
  task.AccountActiveTick();
  task.AccountActiveTick();
  EXPECT_DOUBLE_EQ(task.period_energy(), 3.0);
  EXPECT_EQ(task.period_ticks(), 2);
  EXPECT_TRUE(task.first_period_pending());
  const double committed = task.CommitAccountingPeriod();
  EXPECT_DOUBLE_EQ(committed, 3.0);
  EXPECT_FALSE(task.first_period_pending());
  EXPECT_EQ(task.period_ticks(), 0);
  // 3 J over 2 ms = 1500 W fed to the profile (first sample initializes).
  EXPECT_NEAR(task.profile().power(), 1500.0, 1e-6);
}

TEST(TaskTest, EmptyPeriodCommitIsNoop) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  task.profile().Seed(40.0);
  EXPECT_DOUBLE_EQ(task.CommitAccountingPeriod(), 0.0);
  EXPECT_DOUBLE_EQ(task.profile().power(), 40.0);
  EXPECT_TRUE(task.first_period_pending());
}

TEST(TaskTest, MigrationBookkeeping) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  task.NoteMigration(/*crossed_node=*/false, /*warmup_ticks=*/3);
  EXPECT_EQ(task.migrations(), 1);
  EXPECT_EQ(task.node_migrations(), 0);
  EXPECT_EQ(task.warmup_ticks_left(), 3);
  task.NoteMigration(/*crossed_node=*/true, /*warmup_ticks=*/12);
  EXPECT_EQ(task.migrations(), 2);
  EXPECT_EQ(task.node_migrations(), 1);
  // Warmup decays with execution.
  task.ExecuteTick(1.0);
  EXPECT_EQ(task.warmup_ticks_left(), 11);
}

TEST(TaskTest, TotalEnergyAccumulates) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  task.BeginAccountingPeriod();
  task.AccumulateEnergy(1.0);
  task.AccountActiveTick();
  task.CommitAccountingPeriod();
  task.AccumulateEnergy(2.0);
  task.AccountActiveTick();
  EXPECT_DOUBLE_EQ(task.total_energy(), 3.0);
}

// Short, jittered, noisy phases with a sleep after the second one: every
// draw site (rate noise, phase-duration jitter, sleep jitter) fires often.
std::unique_ptr<Program> JitteredProgram() {
  Phase busy;
  busy.rates[EventIndex(EventType::kUopsRetired)] = 900.0;
  busy.rates[EventIndex(EventType::kFpuOps)] = 300.0;
  busy.mean_duration = 4;
  busy.duration_jitter = 0.4;
  busy.rate_noise = 0.05;
  Phase blocking;
  blocking.rates[EventIndex(EventType::kMemTransactions)] = 200.0;
  blocking.rates[EventIndex(EventType::kStackOps)] = 50.0;
  blocking.mean_duration = 3;
  blocking.duration_jitter = 0.2;
  blocking.rate_noise = 0.1;
  blocking.mean_sleep_after = 25;
  return std::make_unique<Program>("jittered", 4, std::vector<Phase>{busy, blocking}, 0);
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Task draws its noise through a lookahead block; a reference replaying the
// phase machine with one Rng::Gaussian call per draw, in the original order,
// must see exactly the same events, phase changes and sleeps.
TEST(TaskTest, BlockDrawnNoiseMatchesSequentialReference) {
  auto program = JitteredProgram();
  constexpr std::uint64_t kSeed = 0x5eed;
  Task task(1, program.get(), kSeed);

  Rng reference(kSeed);
  std::size_t phase_index = 0;
  Tick ticks_left = 0;
  auto enter_phase = [&](std::size_t index) {
    phase_index = index % program->num_phases();
    const Phase& phase = program->phase(phase_index);
    const double jitter = 1.0 + reference.Gaussian(0.0, phase.duration_jitter);
    ticks_left = std::max<Tick>(1, static_cast<Tick>(std::lround(
                                       static_cast<double>(phase.mean_duration) *
                                       std::max(0.1, jitter))));
  };
  enter_phase(0);

  // 200 ticks draw over 1200 normals: dozens of 32-value lookahead blocks.
  int phase_changes = 0;
  int sleeps = 0;
  for (int t = 0; t < 200; ++t) {
    const double speed = (t % 3 == 0) ? 0.75 : 1.0;
    const Phase& phase = program->phase(phase_index);
    EventVector expected{};
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      const double noise = 1.0 + reference.Gaussian(0.0, phase.rate_noise);
      expected[i] = phase.rates[i] * speed * std::max(0.0, noise);
    }
    Tick expected_sleep = 0;
    if (--ticks_left <= 0) {
      if (phase.mean_sleep_after > 0) {
        const double jitter = 1.0 + reference.Gaussian(0.0, 0.3);
        expected_sleep = std::max<Tick>(
            1, static_cast<Tick>(std::lround(static_cast<double>(phase.mean_sleep_after) *
                                             std::max(0.1, jitter))));
        ++sleeps;
      }
      enter_phase(phase_index + 1);
      ++phase_changes;
    }

    const EventVector events = task.ExecuteTick(speed);
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      ASSERT_TRUE(SameBits(events[i], expected[i])) << "tick " << t << " event " << i;
    }
    ASSERT_EQ(task.phase_index(), phase_index) << "tick " << t;
    ASSERT_EQ(task.TakePendingSleep(), expected_sleep) << "tick " << t;
  }
  EXPECT_GT(phase_changes, 10);
  EXPECT_GT(sleeps, 5);
}

}  // namespace
}  // namespace eas
