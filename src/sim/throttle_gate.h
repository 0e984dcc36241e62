// Thermal-throttling phase (paper Sections 6.2/6.4).
//
// Thermal throttling is a package-level decision: only physical processors
// overheat, so the gate compares the sum of the sibling thermal powers
// against the package's maximum power and halts the whole package (hlt stops
// the core, not a logical thread). Per-logical statistics follow Table 3's
// semantics: a tick counts as throttled for a logical CPU when the package
// halt kept its task from running.

#ifndef SRC_SIM_THROTTLE_GATE_H_
#define SRC_SIM_THROTTLE_GATE_H_

#include <cstddef>

#include "src/sim/simulation_state.h"

namespace eas {

class ThrottleGate {
 public:
  // The package-level halt decision for this tick; always false (and no
  // statistics are recorded) when throttling is disabled.
  bool GatePackage(SimulationState& state, std::size_t physical) const;

  // Records this tick in the per-logical throttle statistics. Must run after
  // the scheduler's switch-in so "had a task to run" is well defined.
  void AccountCpuTicks(SimulationState& state, std::size_t physical,
                       bool throttled) const;
};

}  // namespace eas

#endif  // SRC_SIM_THROTTLE_GATE_H_
