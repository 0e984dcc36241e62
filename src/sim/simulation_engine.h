// The per-tick pipeline, orchestrating the phase components.
//
// One engine tick reproduces the paper's modified kernel tick:
//
//   0. FaultPhase::Run             - due fault-plan events mutate the machine
//                                    (only on faulted configs; see
//                                    src/sim/fault_phase.h)
//   1. SchedTick::SpawnArrivals    - workload arrivals due this tick spawn
//      SchedTick::WakeSleepers     - expired sleeps re-enter their runqueues
//   2. per physical package:
//      a. ThrottleGate::GatePackage    - hlt decision on summed thermal power
//      b. FrequencyPhase::GovernPackage- DVFS governor picks the P-state
//      c. SchedTick::SwitchInPackage   - idle siblings pick their next task
//      d. ThrottleGate::AccountCpuTicks- Table 3 statistics
//      e. SchedTick::SelectActive / ExecuteActive - run tasks at the
//                                        P-state's speed, emit events
//      f. CounterSampler::Sample       - counters, estimator, energy metrics
//                                        (P-state voltage scaling applied)
//      g. ThermalStepper::StepPackage  - true power, RC temperature step
//      h. SchedTick::HandleLifecycle   - blocking / completion / expiry
//   3. BalancePhase::Run           - the registry-selected policy plus hot
//                                    task migration, on their intervals
//   4. tick counter advance, then TickObservers (accounting, tracing)
//
// The engine holds no machine state; everything lives in SimulationState,
// so phases are individually testable and engines are cheap.

#ifndef SRC_SIM_SIMULATION_ENGINE_H_
#define SRC_SIM_SIMULATION_ENGINE_H_

#include <memory>
#include <vector>

#include "src/core/hot_task_migrator.h"
#include "src/sched/balance_policy.h"
#include "src/sim/counter_sampler.h"
#include "src/sim/fault_phase.h"
#include "src/sim/frequency_phase.h"
#include "src/sim/idle_lanes.h"
#include "src/sim/sched_tick.h"
#include "src/sim/simulation_state.h"
#include "src/sim/thermal_stepper.h"
#include "src/sim/throttle_gate.h"

namespace eas {

// Observes completed engine ticks (e.g. the accounting that records the
// experiment traces). Observers run after the tick counter has advanced.
class TickObserver {
 public:
  virtual ~TickObserver() = default;
  virtual void OnTick(const SimulationState& state) = 0;

  // Skip-ahead contract: the earliest now value strictly after `now` at
  // which OnTick does observable work. At every now value before that,
  // OnTick must be a no-op - the engine's quiescent fast path advances the
  // clock in bulk and only invokes observers at span boundaries, so a
  // sparse observer (accounting on a sampling grid) does not force per-tick
  // stepping. The default declares every tick observable, which keeps any
  // observer that does not opt in on the exact per-tick path.
  virtual Tick NextObservableTick(Tick now) const { return now + 1; }
};

// Periodic balancing: runs the policy selected by name through the
// BalancePolicyRegistry, plus hot task migration, each on its interval with
// per-CPU stagger. The phase is configured entirely by the sched config it
// was constructed with (policy, options, cadence) - the state it runs over
// only provides machine state, so an engine never silently mixes its own
// policy with a foreign state's cadence.
class BalancePhase {
 public:
  // Resolves the policy via BalancePolicyRegistry::Global(); throws
  // std::invalid_argument for an unknown policy name.
  explicit BalancePhase(const EnergySchedConfig& sched);

  void Run(SimulationState& state);

  const BalancePolicy& policy() const { return *policy_; }

 private:
  EnergySchedConfig sched_;
  std::unique_ptr<BalancePolicy> policy_;
  HotTaskMigrator hot_migrator_;
};

class SimulationEngine {
 public:
  explicit SimulationEngine(const EnergySchedConfig& sched);

  // Advances `state` by one tick through the full pipeline: the interleaved
  // per-package loop of the paper's kernel tick (phases 2a-2h complete for
  // package p before package p+1 starts).
  void Tick(SimulationState& state);

  // Advances `state` by `ticks` ticks, end-state and trace bit-identical to
  // calling Tick that many times. When the machine is quiescent (no task
  // runnable or running anywhere), the configured policy's idle passes are
  // proven no-ops, and config().skip_ahead is set, spans up to the next
  // interesting tick - earliest wake, arrival, observer sample, or the run
  // budget - are advanced through a reduced kernel instead of the full
  // pipeline:
  //  - ungoverned machines with throttling disabled replay the span's
  //    arithmetic only: every CPU's thermal-power average and every
  //    package's RC temperature advance side by side as register lanes
  //    (src/sim/idle_lanes.h), bit for bit the per-tick recurrences,
  //    stopping early once every lane is at its floating-point fixed
  //    point, and the clock jumps;
  //  - governed or throttling machines step tick by tick through only the
  //    phases an idle tick actually exercises (gate, governor, idle energy
  //    credit, thermal step), skipping heap peeks, switch-in, execution,
  //    lifecycle and balancing, all of which are provably no-ops.
  void Advance(SimulationState& state, eas::Tick ticks);

  void AddObserver(TickObserver* observer);
  void RemoveObserver(TickObserver* observer);

  const BalancePolicy& policy() const { return balance_.policy(); }

 private:
  // Advances a quiescent span of `span` ticks through the lane kernel
  // (ungoverned, throttling disabled). Does not invoke observers.
  void RunQuiescentSpanFast(SimulationState& state, eas::Tick span);

  // Steps a quiescent span tick by tick through the reduced idle kernel
  // (governor and throttle decisions depend on the evolving thermal state,
  // so they run every tick). Invokes observers like the full pipeline.
  void RunQuiescentSpanSlow(SimulationState& state, eas::Tick span);

  SchedTick sched_tick_;
  FaultPhase fault_;
  ThrottleGate throttle_gate_;
  FrequencyPhase frequency_;
  CounterSampler counter_sampler_;
  ThermalStepper thermal_stepper_;
  BalancePhase balance_;
  std::vector<TickObserver*> observers_;

  // Per-tick scratch, reused across packages to avoid reallocation.
  std::vector<int> active_;
  std::vector<EventVector> events_;
  // Closed-form span scratch: one lane per logical CPU, then one per package.
  std::vector<IdleLane> lanes_;
};

}  // namespace eas

#endif  // SRC_SIM_SIMULATION_ENGINE_H_
