// FaultPhase: applies due FaultPlan events at the start of a tick.
//
// The phase pops everything due from the state's fault queue (min-heap
// keyed (tick, plan position), the same machinery wakes and arrivals use)
// and mutates the state before any other phase sees the tick, so a fault's
// effects - drained runqueue, raised temperature, clamped P-state - are
// visible to the gate, governor and scheduler of the very tick it fires
// on. All reactions are
// deterministic: re-placement picks the least-loaded online CPU with a
// lowest-id tie-break and never draws from the shared RNG stream, so a
// fault plan perturbs the simulation only through its declared effects.
//
// Reaction summary (the full argument lives in ARCHITECTURE.md):
//   offline  drain the CPU's runqueue through MigrateTask (period commit +
//            warmup penalty, the normal migration path); the last online
//            CPU refuses to go offline
//   online   restore the mask; balancing repopulates the CPU on its next
//            pass
//   spike    die-temperature jump + a timed emergency window - governed
//            machines are forced to the deepest P-state by FrequencyPhase,
//            ungoverned ones halt through ThrottleGate's backstop
//   clamp    timed P-state floor - enforced by FrequencyPhase when
//            governed, applied (and restored on expiry) here when not

#ifndef SRC_SIM_FAULT_PHASE_H_
#define SRC_SIM_FAULT_PHASE_H_

#include "src/fault/fault_plan.h"
#include "src/sim/simulation_state.h"

namespace eas {

class FaultPhase {
 public:
  // Applies every event due at state.now(), restores expired ungoverned
  // clamps, and appends this tick's offline-CPU count to the ledger. Only
  // called when state.config().faulted().
  void Run(SimulationState& state) const;

 private:
  void ApplyOffline(SimulationState& state, const FaultEvent& event) const;
  void ApplyOnline(SimulationState& state, const FaultEvent& event) const;
  void ApplySpike(SimulationState& state, const FaultEvent& event) const;
  void ApplyClamp(SimulationState& state, const FaultEvent& event) const;
};

}  // namespace eas

#endif  // SRC_SIM_FAULT_PHASE_H_
