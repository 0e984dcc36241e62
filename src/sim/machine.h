// The simulated multiprocessor machine: one SimulationState paired with the
// SimulationEngine that ticks it.
//
// Stands in for the paper's IBM xSeries 445 plus modified Linux kernel. The
// state (runqueues, counters, power metrics, thermal models, tasks) lives in
// SimulationState, which is also the BalanceEnv every policy runs against;
// the per-tick behaviour lives in the SimulationEngine's phase components
// (sched_tick, throttle_gate, counter_sampler, thermal_stepper) with
// balancing policies resolved by name through the BalancePolicyRegistry.
// Machine owns the pair, validates the configured governor up front, and
// offers the spawn/step/run verbs; everything observable is read through
// state().

#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include "src/sim/machine_config.h"
#include "src/sim/simulation_engine.h"
#include "src/sim/simulation_state.h"

namespace eas {

class Machine {
 public:
  // Throws std::invalid_argument if the configured balancing policy or
  // frequency governor name is not registered, or the state rejects the
  // config.
  explicit Machine(const MachineConfig& config);

  // --- workload management --------------------------------------------------

  // Creates a task running `program` and places it (energy-aware placement
  // if enabled, least-loaded otherwise). Returns the task. `nice` scales the
  // task's timeslices (Task::TimesliceForNice).
  Task* Spawn(const Program& program, int nice = 0) { return state_.Spawn(program, nice); }

  // Advances the machine by one tick.
  void Step() { engine_.Tick(state_); }

  // Advances by `n` ticks.
  void Run(Tick n);

  Tick now() const { return state_.now(); }

  // --- layered internals ----------------------------------------------------
  SimulationState& state() { return state_; }
  const SimulationState& state() const { return state_; }
  SimulationEngine& engine() { return engine_; }

 private:
  SimulationState state_;
  SimulationEngine engine_;
};

}  // namespace eas

#endif  // SRC_SIM_MACHINE_H_
