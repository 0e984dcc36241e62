// The closed-form skip-ahead kernel against the scalar per-tick updates it
// replays: every lane must end bitwise where ExpAverage::AddRateSample or
// RcThermalModel::Step, called once per tick, leaves the same state - for
// any lane count (register-block boundaries, inert padding), any span
// (including spans shorter than one fixed-point test chunk), lanes that
// start at or converge to their fixed points at different ticks, and a
// different decay on every lane.

#include "src/sim/idle_lanes.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/exp_average.h"
#include "src/base/time.h"
#include "src/thermal/rc_model.h"

namespace eas {
namespace {

// One recurrence: a thermal-power average fed a constant rate, or an RC
// die temperature at constant power.
struct LaneCase {
  bool thermal = false;
  double tau = 1.0;     // seconds: the average's time constant, or R * C
  double target = 0.0;  // the rate (W) or the dissipated power (W)
  double start = 0.0;   // the initial average or temperature
};

ExpAverage MakeAverage(const LaneCase& c) {
  ExpAverage average = ExpAverage::WithTimeConstant(c.tau, kTickSeconds);
  average.Reset(c.start);
  return average;
}

RcThermalModel MakeThermal(const LaneCase& c) {
  ThermalParams params;
  params.resistance = 0.3;
  params.capacitance = c.tau / params.resistance;
  params.ambient = 22.0;
  RcThermalModel thermal(params);
  thermal.SetTemperature(c.start);
  return thermal;
}

// The lane the engine builds for this recurrence.
IdleLane MakeLane(const LaneCase& c) {
  if (c.thermal) {
    RcThermalModel thermal = MakeThermal(c);
    return ThermalLane(c.start, thermal.params().SteadyStateTemp(c.target),
                       thermal.Decay(kTickSeconds));
  }
  ExpAverage average = MakeAverage(c);
  const double decay = average.Decay(kTickSeconds);
  return AverageLane(c.start, (1.0 - decay) * c.target, decay);
}

// The reference: `steps` scalar per-tick updates.
double Scalar(const LaneCase& c, std::int64_t steps) {
  if (c.thermal) {
    RcThermalModel thermal = MakeThermal(c);
    for (std::int64_t i = 0; i < steps; ++i) {
      thermal.Step(c.target, kTickSeconds);
    }
    return thermal.temperature();
  }
  ExpAverage average = MakeAverage(c);
  for (std::int64_t i = 0; i < steps; ++i) {
    average.AddRateSample(c.target, kTickSeconds);
  }
  return average.value();
}

// Iterates the scalar update until it maps a value to itself bitwise.
double ScalarFixedPoint(const LaneCase& c) {
  LaneCase walk = c;
  for (int round = 0; round < 1'000; ++round) {
    const double next = Scalar(walk, 1'000);
    if (std::bit_cast<std::uint64_t>(Scalar(LaneCase{c.thermal, c.tau, c.target, next}, 1)) ==
        std::bit_cast<std::uint64_t>(next)) {
      return next;
    }
    walk.start = next;
  }
  ADD_FAILURE() << "no fixed point for tau " << c.tau;
  return walk.start;
}

// `count` lanes, a third of them (rounded down) thermal, each with its own
// time constant (so its own decay), target and start. Every fifth lane with
// a short time constant starts exactly at its fixed point; the other short
// lanes reach theirs at different ticks.
std::vector<LaneCase> MixedCases(std::size_t count) {
  const std::size_t thermal = count / 3;
  std::vector<LaneCase> cases;
  for (std::size_t i = 0; i < count; ++i) {
    LaneCase c;
    c.thermal = i >= count - thermal;
    c.tau = 0.002 + 0.0157 * static_cast<double>(i);
    c.target = c.thermal ? 20.0 + 0.5 * static_cast<double>(i % 50)
                         : 1.0 + 0.25 * static_cast<double>(i % 40);
    c.start = c.thermal ? 22.0 + 0.1 * static_cast<double>(i % 97)
                        : 0.5 + 0.3 * static_cast<double>(i % 31);
    if (i % 5 == 0 && c.tau < 0.5) {
      c.start = ScalarFixedPoint(c);
    }
    cases.push_back(c);
  }
  return cases;
}

void ExpectMatchesScalar(const std::vector<LaneCase>& cases, std::int64_t steps) {
  std::vector<IdleLane> lanes;
  for (const LaneCase& c : cases) {
    lanes.push_back(MakeLane(c));
  }
  AdvanceIdleLanes(lanes, steps);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const double expected = Scalar(cases[i], steps);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes[i].value),
              std::bit_cast<std::uint64_t>(expected))
        << "lane " << i << " of " << cases.size() << (cases[i].thermal ? " (thermal)" : "")
        << ", " << steps << " steps: " << lanes[i].value << " vs " << expected;
  }
}

TEST(IdleLanesTest, MatchesScalarLoopsAcrossLaneCountsAndSpans) {
  // 768 = a 512-CPU machine's averages plus its 256 packages.
  for (const std::size_t count : {1u, 3u, 8u, 17u, 768u}) {
    const std::vector<LaneCase> cases = MixedCases(count);
    for (const std::int64_t steps : {1, 2, 499, 500, 5'000}) {
      SCOPED_TRACE("lanes " + std::to_string(count) + ", steps " + std::to_string(steps));
      ExpectMatchesScalar(cases, steps);
    }
  }
}

TEST(IdleLanesTest, LanesAtTheirFixedPointsStayThere) {
  std::vector<LaneCase> cases;
  for (int i = 0; i < 6; ++i) {
    LaneCase c;
    c.thermal = i % 2 == 1;
    c.tau = 0.004 * (i + 1);
    c.target = 30.0 + i;
    c.start = ScalarFixedPoint(c);
    cases.push_back(c);
  }
  for (const std::int64_t steps : {1, 17, 1'000}) {
    std::vector<IdleLane> lanes;
    for (const LaneCase& c : cases) {
      lanes.push_back(MakeLane(c));
    }
    // The first fixed-point test comes after at most 16 steps.
    EXPECT_LE(AdvanceIdleLanes(lanes, steps), 16);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes[i].value),
                std::bit_cast<std::uint64_t>(cases[i].start))
          << "lane " << i << ", " << steps << " steps";
    }
  }
}

TEST(IdleLanesTest, StopsOnceEveryLaneIsAtItsFixedPoint) {
  // Short time constants reach their fixed points within a few thousand
  // ticks, so the kernel must stop long before a 2^24-tick span ends, and
  // on exactly the fixed points.
  std::vector<LaneCase> cases;
  for (int i = 0; i < 19; ++i) {
    LaneCase c;
    c.thermal = i % 3 == 0;
    c.tau = 0.002 * (i + 1);
    c.target = 10.0 + 2.0 * i;
    c.start = c.thermal ? 22.0 : 0.0;
    cases.push_back(c);
  }
  std::vector<IdleLane> lanes;
  for (const LaneCase& c : cases) {
    lanes.push_back(MakeLane(c));
  }
  const std::int64_t ran = AdvanceIdleLanes(lanes, std::int64_t{1} << 24);
  EXPECT_LT(ran, 100'000);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes[i].value),
              std::bit_cast<std::uint64_t>(ScalarFixedPoint(cases[i])))
        << "lane " << i;
  }
}

TEST(IdleLanesTest, EmptySpanAndNoLanesAreNoOps) {
  LaneCase c;
  c.target = 5.0;
  c.start = 1.0;
  std::vector<IdleLane> lanes = {MakeLane(c)};
  EXPECT_EQ(AdvanceIdleLanes(lanes, 0), 0);
  EXPECT_EQ(lanes[0].value, 1.0);
  std::vector<IdleLane> none;
  EXPECT_EQ(AdvanceIdleLanes(none, 1'000), 0);
}

}  // namespace
}  // namespace eas
