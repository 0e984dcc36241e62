#include "src/counters/calibration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/counters/energy_estimator.h"

namespace eas {
namespace {

TEST(CalibrationTest, RecoversWeightsWithinTolerance) {
  const EnergyModel truth = EnergyModel::Default();
  const CalibrationResult result = Calibrator::CalibrateDefault(truth, 123, 0.02);
  EXPECT_EQ(result.runs_used, 16u);
  // With 2% meter noise the recovered weights must stay within 10% of truth
  // (the paper's overall estimation error bound).
  EXPECT_LT(result.max_relative_weight_error, 0.10);
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    EXPECT_GT(result.weights[i], 0.0) << "weight " << i << " must be positive";
  }
}

TEST(CalibrationTest, PerfectMeterRecoversAlmostExactly) {
  const EnergyModel truth = EnergyModel::Default();
  const CalibrationResult result = Calibrator::CalibrateDefault(truth, 7, 0.0);
  // Only per-tick rate jitter remains; least squares still averages it out.
  EXPECT_LT(result.max_relative_weight_error, 0.02);
}

TEST(CalibrationTest, SolveRequiresEnoughRuns) {
  const EnergyModel truth = EnergyModel::Default();
  Calibrator calibrator(truth);
  CalibrationRun run;
  run.events[0] = 100.0;
  run.measured_energy = 1.0;
  calibrator.AddRun(run);
  CalibrationResult result;
  EXPECT_FALSE(calibrator.Solve(result));
}

TEST(CalibrationTest, DegenerateRunsAreSingular) {
  const EnergyModel truth = EnergyModel::Default();
  Calibrator calibrator(truth);
  // Identical runs: rank 1 system.
  for (int i = 0; i < 10; ++i) {
    CalibrationRun run;
    for (std::size_t j = 0; j < kNumEventTypes; ++j) {
      run.events[j] = 100.0;
    }
    run.measured_energy = 1.0;
    calibrator.AddRun(run);
  }
  CalibrationResult result;
  EXPECT_FALSE(calibrator.Solve(result));
}

TEST(CalibrationTest, EndToEndEstimationErrorUnderTenPercent) {
  // The paper's headline bound: estimation error < 10% for real workloads.
  const EnergyModel truth = EnergyModel::Default();
  const CalibrationResult calibration = Calibrator::CalibrateDefault(truth, 99, 0.02);
  const EnergyEstimator estimator(calibration.weights, truth.active_base_power());

  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    // A random "application": random mix, run for 100 ticks.
    EventRates rates{};
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      rates[i] = rng.Uniform(10.0, 1500.0);
    }
    EventVector total{};
    double true_energy = 0.0;
    for (int t = 0; t < 100; ++t) {
      EventVector events{};
      for (std::size_t i = 0; i < kNumEventTypes; ++i) {
        events[i] = rates[i] * (1.0 + rng.Gaussian(0.0, 0.03));
        total[i] += events[i];
      }
      true_energy += truth.DynamicEnergy(events);
    }
    const double estimated = estimator.EstimateDynamicEnergy(total);
    const double error = std::abs(estimated - true_energy) / true_energy;
    EXPECT_LT(error, 0.10) << "trial " << trial;
  }
}

// CalibrateDefault as it read with one Rng::Gaussian call per tick and
// event class: the block-drawn RunWorkload must recover the same weights,
// bit for bit.
EventWeights SequentialCalibrateDefault(const EnergyModel& truth, std::uint64_t seed,
                                        double meter_error_stddev) {
  Calibrator calibrator(truth);
  PowerMeter meter(seed ^ 0x5eedu, meter_error_stddev);
  Rng rng(seed);
  auto run_workload = [&](const EventRates& rates) {
    CalibrationRun run;
    double true_energy = 0.0;
    for (int t = 0; t < 2000; ++t) {
      EventVector tick_events{};
      for (std::size_t i = 0; i < kNumEventTypes; ++i) {
        const double jitter = 1.0 + rng.Gaussian(0.0, 0.03);
        tick_events[i] = rates[i] * std::max(0.0, jitter);
        run.events[i] += tick_events[i];
      }
      true_energy += truth.DynamicEnergy(tick_events);
    }
    run.measured_energy = meter.MeasureEnergy(true_energy);
    calibrator.AddRun(run);
  };
  for (std::size_t dominant = 0; dominant < kNumEventTypes; ++dominant) {
    EventRates rates{};
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      rates[i] = (i == dominant) ? 1500.0 : 60.0;
    }
    run_workload(rates);
  }
  for (int mix = 0; mix < 10; ++mix) {
    EventRates rates{};
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      rates[i] = rng.Uniform(50.0, 1200.0);
    }
    run_workload(rates);
  }
  CalibrationResult result;
  EXPECT_TRUE(calibrator.Solve(result));
  return result.weights;
}

TEST(CalibrationTest, BlockDrawnJitterMatchesSequentialDraws) {
  const EnergyModel truth = EnergyModel::Default();
  for (const std::uint64_t seed : {1u, 7u, 123u}) {
    const CalibrationResult result = Calibrator::CalibrateDefault(truth, seed, 0.02);
    const EventWeights expected = SequentialCalibrateDefault(truth, seed, 0.02);
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.weights[i]),
                std::bit_cast<std::uint64_t>(expected[i]))
          << "seed " << seed << " weight " << i;
    }
  }
}

}  // namespace
}  // namespace eas
