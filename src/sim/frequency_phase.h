// Frequency-scaling phase: per-package governor decisions and P-state
// residency accounting.
//
// Slots into the engine tick between the ThrottleGate's hlt decision and the
// SchedTick switch-in, so a governor sees the same thermal-power metric the
// gate compared and its P-state applies to everything executed this tick.
// The governor is selected by name from MachineConfig::frequency_governor
// through the FrequencyGovernorRegistry, one instance per physical package
// (governors keep per-package state as plain members). The "none" governor
// short-circuits to a no-op - no decisions, no residency accounting, not a
// single floating-point operation - which is what keeps a none-governor
// machine bit-identical to one predating the frequency layer.

#ifndef SRC_SIM_FREQUENCY_PHASE_H_
#define SRC_SIM_FREQUENCY_PHASE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/freq/frequency_governor.h"
#include "src/sim/simulation_state.h"

namespace eas {

class FrequencyPhase {
 public:
  // Runs the package's governor for this tick: gathers the inputs (thermal
  // power vs budget, utilization, the hlt decision), applies the returned
  // P-state to the package's FrequencyDomain and accounts one residency
  // tick. No-op when the configured governor is "none". Throws
  // std::invalid_argument on the first call if the configured governor name
  // is unknown (Machine's constructor validates earlier for a fail-fast
  // path).
  void GovernPackage(SimulationState& state, std::size_t physical, bool package_throttled);

 private:
  // Governors are created lazily on the first tick because the engine only
  // learns the machine (config and package count) from the state it is
  // handed; one engine is paired with one state in practice.
  void EnsureGovernors(SimulationState& state);

  bool initialized_ = false;
  bool active_ = false;
  std::vector<std::unique_ptr<FrequencyGovernor>> governors_;  // per physical
};

}  // namespace eas

#endif  // SRC_SIM_FREQUENCY_PHASE_H_
