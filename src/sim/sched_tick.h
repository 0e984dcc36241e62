// Scheduler-tick phase: wakeups, switch-in, execution, and end-of-tick task
// lifecycle (blocking, completion, timeslice expiry).
//
// This is the Linux-2.6 part of the per-tick pipeline - everything that
// decides *which* task runs and for how long. Energy attribution is the
// CounterSampler's job; this phase only advances tasks and emits their
// counter events.

#ifndef SRC_SIM_SCHED_TICK_H_
#define SRC_SIM_SCHED_TICK_H_

#include <vector>

#include "src/counters/event_types.h"
#include "src/sim/simulation_state.h"

namespace eas {

class SchedTick {
 public:
  // Spawns every workload arrival due at the current tick (scheduled through
  // SimulationState::ScheduleArrival), in schedule order. Runs before
  // WakeSleepers: an arrival's placement sees the queues as they were at the
  // end of the previous tick, exactly as the chunked experiment loop this
  // replaced did.
  void SpawnArrivals(SimulationState& state) const;

  // Moves every sleeping task whose wake tick has arrived back onto the
  // runqueue it last ran on (wake affinity, Section 4.1). Pops the state's
  // wake queue instead of scanning the task table: cost scales with the
  // wakeups due this tick, not with the tasks ever spawned.
  void WakeSleepers(SimulationState& state) const;

  // Switches in the next queued task on every idle sibling of `physical`.
  void SwitchInPackage(SimulationState& state, std::size_t physical) const;

  // Fills `active` with the logical CPUs of `physical` that execute this
  // tick: those with a current task, unless the package is halted.
  void SelectActive(const SimulationState& state, std::size_t physical,
                    bool throttled, std::vector<int>& active) const;

  // Executes one tick on each active CPU (SMT co-run and cache-warmup
  // slowdowns applied, everything scaled by the package's DVFS frequency
  // multiplier - 1.0 when ungoverned) and decrements timeslices. `events[i]`
  // receives the counter events of `active[i]`.
  void ExecuteActive(SimulationState& state, const std::vector<int>& active,
                     std::vector<EventVector>& events,
                     double frequency_multiplier = 1.0) const;

  // End-of-tick lifecycle for `cpu`'s current task: start a blocking sleep,
  // respawn or retire on completion, rotate on timeslice expiry.
  void HandleLifecycle(SimulationState& state, int cpu) const;
};

}  // namespace eas

#endif  // SRC_SIM_SCHED_TICK_H_
