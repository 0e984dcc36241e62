#include "perfbench/src/phase_driver.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "src/sim/accounting.h"
#include "src/sim/counter_sampler.h"
#include "src/sim/experiment.h"
#include "src/sim/frequency_phase.h"
#include "src/sim/sched_tick.h"
#include "src/sim/simulation_engine.h"
#include "src/sim/thermal_stepper.h"
#include "src/sim/throttle_gate.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Chained lap timer: one clock read per phase boundary, charged to the
// phase that just ended, so back-to-back phases share their boundary read.
class LapTimer {
 public:
  explicit LapTimer(PhaseLedger& ledger) : ledger_(ledger), last_(Clock::now()) {}

  void Restart() { last_ = Clock::now(); }

  // Runs `call` and charges its time and one call to `phase`. Every phase
  // call of the driver goes through here, so dropping a call drops its
  // count and PhaseLedger::CheckCalls reports it.
  template <typename Call>
  void Timed(Phase phase, Call&& call) {
    call();
    const Clock::time_point now = Clock::now();
    ledger_.seconds[phase] += std::chrono::duration<double>(now - last_).count();
    ++ledger_.calls[phase];
    last_ = now;
  }

 private:
  PhaseLedger& ledger_;
  Clock::time_point last_;
};

// The engine's interleaved tick (SimulationEngine::TickInterleaved), phase
// by phase.
class TracedStepper {
 public:
  explicit TracedStepper(const eas::EnergySchedConfig& sched) : balance_(sched) {}

  void Tick(eas::SimulationState& state, eas::TickObserver& observer, PhaseLedger& ledger) {
    // The engine's skip-ahead test: nothing runnable and no wake or arrival
    // due at this tick.
    const eas::Tick never = std::numeric_limits<eas::Tick>::max();
    if (state.total_runnable() == 0 && state.wake_queue().NextEventTick(never) > state.now() &&
        state.arrival_queue().NextEventTick(never) > state.now()) {
      ++ledger.quiescent_ticks;
    }
    const std::size_t arrivals_before = state.arrival_queue().size();
    const std::size_t wakes_before = state.wake_queue().size();

    LapTimer lap(ledger);
    lap.Timed(kArrivals, [&] { sched_tick_.SpawnArrivals(state); });
    lap.Timed(kWake, [&] { sched_tick_.WakeSleepers(state); });
    ledger.arrivals += static_cast<std::int64_t>(arrivals_before - state.arrival_queue().size());
    // WakeSleepers only pops; lifecycle pushes come later in the tick.
    ledger.wakes += static_cast<std::int64_t>(wakes_before - state.wake_queue().size());
    lap.Restart();

    const std::size_t physical = state.num_physical();
    for (std::size_t phys = 0; phys < physical; ++phys) {
      bool throttled = false;
      lap.Timed(kGate, [&] { throttled = throttle_gate_.GatePackage(state, phys); });
      lap.Timed(kGovern, [&] { frequency_.GovernPackage(state, phys, throttled); });
      lap.Timed(kSwitchIn, [&] { sched_tick_.SwitchInPackage(state, phys); });
      lap.Timed(kGate, [&] { throttle_gate_.AccountCpuTicks(state, phys, throttled); });
      lap.Timed(kSwitchIn, [&] { sched_tick_.SelectActive(state, phys, throttled, active_); });
      lap.Timed(kExecute, [&] {
        sched_tick_.ExecuteActive(state, active_, events_,
                                  state.freq_domain(phys).frequency_multiplier());
      });
      double true_dynamic = 0.0;
      lap.Timed(kSample,
                [&] { true_dynamic = counter_sampler_.Sample(state, phys, active_, events_); });
      lap.Timed(kThermal,
                [&] { thermal_stepper_.StepPackage(state, phys, active_.size(), true_dynamic); });
      ledger.executed += static_cast<std::int64_t>(active_.size());
      lap.Restart();
      for (int cpu : active_) {
        lap.Timed(kLifecycle, [&] { sched_tick_.HandleLifecycle(state, cpu); });
      }
    }

    lap.Timed(kBalance, [&] { balance_.Run(state); });
    state.AdvanceTick();
    lap.Restart();
    lap.Timed(kObserve, [&] { observer.OnTick(state); });
  }

 private:
  eas::SchedTick sched_tick_;
  eas::ThrottleGate throttle_gate_;
  eas::FrequencyPhase frequency_;
  eas::CounterSampler counter_sampler_;
  eas::ThermalStepper thermal_stepper_;
  eas::BalancePhase balance_;
  std::vector<int> active_;
  std::vector<eas::EventVector> events_;
};

}  // namespace

const char* PhaseName(Phase phase) {
  static constexpr const char* kNames[kNumPhases] = {
      "sim.arrivals",   "sim.wake",      "thermal.gate",    "freq.govern",
      "sched.switch_in", "task.execute", "counters.sample", "thermal.step",
      "sched.lifecycle", "core.balance", "sim.observe",
  };
  return kNames[phase];
}

void PhaseLedger::Add(const PhaseLedger& other) {
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    seconds[i] += other.seconds[i];
    calls[i] += other.calls[i];
  }
  ticks += other.ticks;
  quiescent_ticks += other.quiescent_ticks;
  package_ticks += other.package_ticks;
  executed += other.executed;
  wakes += other.wakes;
  arrivals += other.arrivals;
  migrations += other.migrations;
  completions += other.completions;
}

std::array<std::int64_t, 8> PhaseLedger::Counts() const {
  return {ticks, quiescent_ticks, package_ticks, executed,
          wakes, arrivals,        migrations,    completions};
}

std::string PhaseLedger::CheckCalls() const {
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const Phase phase = static_cast<Phase>(i);
    std::int64_t expected = 0;
    switch (phase) {
      case kGate:
      case kSwitchIn:
        expected = 2 * package_ticks;
        break;
      case kGovern:
      case kExecute:
      case kSample:
      case kThermal:
        expected = package_ticks;
        break;
      case kLifecycle:
        expected = executed;
        break;
      default:
        expected = ticks;
        break;
    }
    if (calls[i] != expected) {
      return std::string(PhaseName(phase)) + " called " + std::to_string(calls[i]) +
             " times, expected " + std::to_string(expected);
    }
  }
  return "";
}

std::string EndState::DiffAgainst(const EndState& other) const {
  if (now != other.now) return "tick counter";
  if (!SameBits(work_done, other.work_done)) return "work done";
  if (!SameBits(task_energy, other.task_energy)) return "task energy";
  if (migrations != other.migrations) return "migrations";
  if (completions != other.completions) return "completions";
  if (temperature.size() != other.temperature.size()) return "package count";
  for (std::size_t i = 0; i < temperature.size(); ++i) {
    if (!SameBits(temperature[i], other.temperature[i])) {
      return "temperature of package " + std::to_string(i);
    }
    if (!SameBits(true_power[i], other.true_power[i])) {
      return "true power of package " + std::to_string(i);
    }
  }
  return "";
}

EndState CaptureEndState(const eas::SimulationState& state) {
  EndState end;
  end.now = state.now();
  end.work_done = state.TotalWorkDone();
  end.task_energy = state.TotalTaskEnergy();
  end.migrations = state.migration_count();
  end.completions = state.TotalCompletions();
  for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
    end.temperature.push_back(state.Temperature(phys));
    end.true_power.push_back(state.TruePower(phys));
  }
  return end;
}

double TimerSecondsPerCall() {
  constexpr int kCalls = 100'000;
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    PhaseLedger scratch;
    LapTimer lap(scratch);
    for (int i = 0; i < kCalls; ++i) {
      lap.Timed(kArrivals, [] {});
    }
    per_call.push_back(scratch.seconds[kArrivals] / kCalls);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

EndState RunEngine(const eas::ExperimentSpec& spec, double* host_seconds) {
  const Clock::time_point start = Clock::now();
  eas::Experiment experiment(spec.config, spec.options);
  experiment.Run(spec.workload);
  *host_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return CaptureEndState(experiment.machine().state());
}

EndState RunTraced(const eas::ExperimentSpec& spec, PhaseLedger& ledger) {
  if (spec.config.faulted() || spec.config.intra_run_threads != 0) {
    throw std::invalid_argument("phase driver: faulted or sharded config for " + spec.name);
  }
  eas::SimulationState state(spec.config);
  TracedStepper stepper(spec.config.sched);

  // Experiment::Run's set-up: the initial spawn set, then timed arrivals
  // through the arrival queue, then the accounting observer.
  const std::vector<eas::TaskArrival>& arrivals = spec.workload.arrivals();
  std::vector<eas::Task*> spawned;
  std::size_t next = 0;
  while (next < arrivals.size() && arrivals[next].tick <= 0) {
    spawned.push_back(state.Spawn(*arrivals[next].program, arrivals[next].nice));
    ++next;
  }
  const eas::Tick start = state.now();
  for (; next < arrivals.size(); ++next) {
    state.ScheduleArrival(*arrivals[next].program, arrivals[next].nice,
                          start + arrivals[next].tick);
  }
  eas::Accounting::Options accounting_options;
  accounting_options.sample_interval_ticks = spec.options.sample_interval_ticks;
  eas::Accounting accounting(state, accounting_options);
  if (spec.options.record_task_cpu) {
    for (const eas::Task* task : spawned) {
      accounting.TraceTask(task);
    }
  }

  PhaseLedger run;
  for (eas::Tick t = 0; t < spec.options.duration_ticks; ++t) {
    stepper.Tick(state, accounting, run);
  }
  state.ClearPendingArrivals();

  run.ticks = spec.options.duration_ticks;
  run.package_ticks = spec.options.duration_ticks * static_cast<std::int64_t>(state.num_physical());
  run.migrations = state.migration_count();
  run.completions = state.TotalCompletions();
  ledger.Add(run);
  return CaptureEndState(state);
}

}  // namespace perfbench
