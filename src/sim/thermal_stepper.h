// Thermal-stepping phase: the package's true electrical power this tick and
// one step of the RC thermal model (paper Section 5.2).

#ifndef SRC_SIM_THERMAL_STEPPER_H_
#define SRC_SIM_THERMAL_STEPPER_H_

#include <cstddef>

#include "src/sim/simulation_state.h"

namespace eas {

class ThermalStepper {
 public:
  // Computes the true electrical power of `physical` from the number of
  // active siblings and the tick's true dynamic energy, records it, and
  // advances the package's RC model by one tick.
  void StepPackage(SimulationState& state, std::size_t physical,
                   std::size_t active_count, double true_dynamic) const;
};

}  // namespace eas

#endif  // SRC_SIM_THERMAL_STEPPER_H_
