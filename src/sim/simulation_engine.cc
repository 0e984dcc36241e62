#include "src/sim/simulation_engine.h"

#include <algorithm>

#include "src/core/policy_registry.h"

namespace eas {

BalancePhase::BalancePhase(const EnergySchedConfig& sched)
    : sched_(sched),
      policy_(BalancePolicyRegistry::Global().CreateOrThrow(EffectiveBalancerName(sched), sched)),
      hot_migrator_(sched.hot_migration) {}

void BalancePhase::Run(SimulationState& state) {
  const EnergySchedConfig& sched = sched_;
  const std::size_t logical = state.config().topology.num_logical();
  for (std::size_t i = 0; i < logical; ++i) {
    const int cpu = static_cast<int>(i);
    if (!state.CpuOnline(cpu)) {
      continue;  // an offlined CPU neither pulls work nor sheds hot tasks
    }
    const Tick stagger = static_cast<Tick>(i) * 17;

    const bool idle = state.runqueue(cpu).Idle();
    const Tick interval =
        idle ? sched.idle_balance_interval_ticks : sched.balance_interval_ticks;
    if ((state.now() + stagger) % interval == 0) {
      policy_->Balance(cpu, state);
    }

    if (sched.hot_task_migration &&
        (state.now() + stagger) % sched.hot_check_interval_ticks == 0) {
      hot_migrator_.Check(cpu, state);
    }
  }
}

SimulationEngine::SimulationEngine(const EnergySchedConfig& sched) : balance_(sched) {}

void SimulationEngine::Tick(SimulationState& state) {
  if (state.config().faulted()) {
    fault_.Run(state);
  }
  sched_tick_.SpawnArrivals(state);
  sched_tick_.WakeSleepers(state);

  const std::size_t physical = state.num_physical();
  for (std::size_t phys = 0; phys < physical; ++phys) {
    const bool throttled = throttle_gate_.GatePackage(state, phys);
    frequency_.GovernPackage(state, phys, throttled);
    sched_tick_.SwitchInPackage(state, phys);
    throttle_gate_.AccountCpuTicks(state, phys, throttled);
    sched_tick_.SelectActive(state, phys, throttled, active_);
    sched_tick_.ExecuteActive(state, active_, events_,
                              state.freq_domain(phys).frequency_multiplier());
    const double true_dynamic = counter_sampler_.Sample(state, phys, active_, events_);
    thermal_stepper_.StepPackage(state, phys, active_.size(), true_dynamic);
    for (int cpu : active_) {
      sched_tick_.HandleLifecycle(state, cpu);
    }
  }

  balance_.Run(state);
  state.AdvanceTick();

  for (TickObserver* observer : observers_) {
    observer->OnTick(state);
  }
}

void SimulationEngine::Advance(SimulationState& state, eas::Tick ticks) {
  const MachineConfig& config = state.config();
  const bool skip_eligible = config.skip_ahead && balance_.policy().IdleMachineIsNoop();
  // Faulted machines never take the closed-form path: the slow kernel runs
  // the observers (the InvariantChecker must see every tick) and recomputes
  // the gate and governor, whose decisions fault windows change.
  const bool fast_eligible =
      skip_eligible && !config.governed() && !config.throttling_enabled && !config.faulted();
  const eas::Tick end = state.now() + ticks;

  while (state.now() < end) {
    if (skip_eligible && state.total_runnable() == 0 &&
        (!config.faulted() || state.FaultQuiescent())) {
      // Next interesting tick: the span must stop where a naive tick would
      // do real work. A wake or arrival due at tick t is processed at the
      // start of the tick beginning at t, so the span may run up to t
      // exactly; observers fire after the clock advances, so the fast path
      // (which skips them) stops at the earliest observable now value. A
      // pending fault event bounds the span the same way: it must be
      // applied by FaultPhase inside a full tick, never jumped over.
      eas::Tick span_end = end;
      span_end = std::min(span_end, state.wake_queue().NextEventTick(span_end));
      span_end = std::min(span_end, state.arrival_queue().NextEventTick(span_end));
      if (config.faulted()) {
        span_end = std::min(span_end, state.fault_queue().NextEventTick(span_end));
      }
      if (fast_eligible) {
        for (TickObserver* observer : observers_) {
          span_end = std::min(span_end, observer->NextObservableTick(state.now()));
        }
      }
      const eas::Tick span = span_end - state.now();
      if (span > 0) {
        if (fast_eligible) {
          RunQuiescentSpanFast(state, span);
          // The span boundary may be an observer's sampling tick; calling
          // every observer is safe because off-grid OnTicks are no-ops by
          // the NextObservableTick contract.
          for (TickObserver* observer : observers_) {
            observer->OnTick(state);
          }
        } else {
          RunQuiescentSpanSlow(state, span);
        }
        continue;
      }
    }
    Tick(state);
  }
}

void SimulationEngine::RunQuiescentSpanFast(SimulationState& state, eas::Tick span) {
  // Exactly the state a naive idle tick mutates, integrated over the span:
  //  - every logical CPU's thermal-power average absorbs its idle share
  //    (CounterSampler's inactive-sibling credit; no CPU is active);
  //  - every package's true power is the halt power (ThermalStepper with
  //    active_count == 0 and zero dynamic energy) and its RC model steps at
  //    that constant power.
  // Heap peeks, switch-in, selection, execution, lifecycle and balancing
  // touch nothing on an idle machine and draw no randomness, so eliding
  // them is bit-neutral. The bulk helpers replay the per-tick floating-
  // point recurrences exactly (hoisting only constant-operand expressions).
  const double idle_share = state.IdlePowerPerLogical();
  const double idle_joules = idle_share * kTickSeconds;
  const std::size_t logical = state.num_cpus();
  for (std::size_t cpu = 0; cpu < logical; ++cpu) {
    state.power_state(static_cast<int>(cpu))
        .AccountEnergyRepeated(idle_joules, kTickSeconds, span);
  }

  // ThermalStepper's idle expression: halt static power plus zero dynamic
  // energy over the tick. `+ 0.0 / kTickSeconds` adds exact +0.0 to a
  // positive value, so the result is bitwise the halt power.
  const double true_power = state.config().model.halt_power() + 0.0 / kTickSeconds;
  const std::size_t physical = state.num_physical();
  for (std::size_t phys = 0; phys < physical; ++phys) {
    state.set_true_power(phys, true_power);
    state.thermal(phys).StepN(true_power, kTickSeconds, span);
  }

  state.AdvanceTicks(span);
}

void SimulationEngine::RunQuiescentSpanSlow(SimulationState& state, eas::Tick span) {
  // Per-tick reduced kernel: the throttle gate and the frequency governor
  // read the evolving thermal state (and keep hysteresis latches and
  // residency counters), so their decisions must be recomputed every tick.
  // Everything else an idle tick runs is replayed through the same phase
  // components the full pipeline uses; the skipped phases are the provably
  // inert ones (heaps, switch-in, selection, execution, lifecycle, balance).
  const std::size_t physical = state.num_physical();
  for (eas::Tick i = 0; i < span; ++i) {
    for (std::size_t phys = 0; phys < physical; ++phys) {
      const bool throttled = throttle_gate_.GatePackage(state, phys);
      frequency_.GovernPackage(state, phys, throttled);
      throttle_gate_.AccountCpuTicks(state, phys, throttled);
      active_.clear();
      events_.clear();
      const double true_dynamic = counter_sampler_.Sample(state, phys, active_, events_);
      thermal_stepper_.StepPackage(state, phys, active_.size(), true_dynamic);
    }
    state.AdvanceTick();
    for (TickObserver* observer : observers_) {
      observer->OnTick(state);
    }
  }
}

void SimulationEngine::AddObserver(TickObserver* observer) {
  observers_.push_back(observer);
}

void SimulationEngine::RemoveObserver(TickObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

}  // namespace eas
