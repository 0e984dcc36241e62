// Traced phase driver: runs an ExperimentSpec the way Experiment::Run does,
// but steps every tick itself through the public phase components of
// src/sim, in SimulationEngine's interleaved tick order, with a host timer
// around each call. It never skips ahead, so every tick - quiescent or not -
// takes the full pipeline, which is also what makes it the tick-by-tick
// reference the skip-ahead end state is checked against.
//
// The same approach src/sim/scan_reference.h takes: the phase order is
// copied here, and the bit-identity check against SimulationEngine (plus the
// per-phase call-count check) is what catches a copy that drifted.

#ifndef PERFBENCH_SRC_PHASE_DRIVER_H_
#define PERFBENCH_SRC_PHASE_DRIVER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/experiment_runner.h"
#include "src/sim/simulation_state.h"

namespace perfbench {

// One slot per layer boundary the driver times. Package phases are called
// once per physical package per tick; the rest once per tick, except
// lifecycle (once per executed task).
enum Phase : std::size_t {
  kArrivals,   // SchedTick::SpawnArrivals
  kWake,       // SchedTick::WakeSleepers
  kGate,       // ThrottleGate::GatePackage + AccountCpuTicks (2 calls/package)
  kGovern,     // FrequencyPhase::GovernPackage
  kSwitchIn,   // SchedTick::SwitchInPackage + SelectActive (2 calls/package)
  kExecute,    // SchedTick::ExecuteActive (task execution + PMC noise draws)
  kSample,     // CounterSampler::Sample
  kThermal,    // ThermalStepper::StepPackage
  kLifecycle,  // SchedTick::HandleLifecycle
  kBalance,    // BalancePhase::Run
  kObserve,    // TickObservers (the Accounting observer)
  kNumPhases,
};

const char* PhaseName(Phase phase);

// Host time and call counts per phase, plus the exact work counts.
struct PhaseLedger {
  std::array<double, kNumPhases> seconds{};
  std::array<std::int64_t, kNumPhases> calls{};
  std::int64_t ticks = 0;
  std::int64_t quiescent_ticks = 0;  // ticks the engine may skip ahead over
  std::int64_t package_ticks = 0;    // ticks x physical packages
  std::int64_t executed = 0;         // task-ticks executed
  std::int64_t wakes = 0;            // wake-queue entries popped
  std::int64_t arrivals = 0;         // arrivals spawned
  std::int64_t migrations = 0;
  std::int64_t completions = 0;

  void Add(const PhaseLedger& other);

  // Host time of `phase` less the timer's own cost per call: each timed
  // interval includes one clock read and its bookkeeping.
  double SelfSeconds(Phase phase, double timer_seconds_per_call) const {
    return seconds[phase] - static_cast<double>(calls[phase]) * timer_seconds_per_call;
  }

  // The exact counts, for the repeat check between traced passes.
  std::array<std::int64_t, 8> Counts() const;

  // Empty when every phase was called as often as the tick structure
  // requires; otherwise names the first phase whose count is off.
  std::string CheckCalls() const;
};

// The end state the bit-identity checks compare, doubles compared by bits.
struct EndState {
  eas::Tick now = 0;
  double work_done = 0.0;
  double task_energy = 0.0;
  std::int64_t migrations = 0;
  std::int64_t completions = 0;
  std::vector<double> temperature;  // per physical package
  std::vector<double> true_power;   // per physical package

  // Empty when bit-identical; otherwise names the first difference.
  std::string DiffAgainst(const EndState& other) const;
};

EndState CaptureEndState(const eas::SimulationState& state);

// Host seconds one timed call adds on its own (a call that does nothing),
// measured on this machine now.
double TimerSecondsPerCall();

// Runs `spec` through Experiment (SimulationEngine::Advance, skip-ahead as
// configured). `host_seconds` receives the run's host time.
EndState RunEngine(const eas::ExperimentSpec& spec, double* host_seconds);

// Runs `spec` through the traced driver, accumulating into `ledger`.
// Faulted and sharded-pipeline configs are refused (std::invalid_argument):
// the driver reproduces the interleaved fault-free tick only.
EndState RunTraced(const eas::ExperimentSpec& spec, PhaseLedger& ledger);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PHASE_DRIVER_H_
