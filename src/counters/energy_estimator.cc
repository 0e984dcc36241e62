#include "src/counters/energy_estimator.h"

#include <cassert>

namespace eas {

EnergyEstimator::EnergyEstimator(const EventWeights& weights,
                                 double static_power_per_logical_watts)
    : weights_(weights), static_power_per_logical_watts_(static_power_per_logical_watts) {}

EnergyEstimator EnergyEstimator::Oracle(const EnergyModel& model, std::size_t smt_siblings) {
  assert(smt_siblings >= 1);
  return EnergyEstimator(model.weights(),
                         model.active_base_power() / static_cast<double>(smt_siblings));
}

double EnergyEstimator::EstimateEnergy(const EventVector& counter_diff, Tick active_ticks) const {
  return EstimateDynamicEnergy(counter_diff) +
         static_power_per_logical_watts_ * TicksToSeconds(active_ticks);
}

double EnergyEstimator::EstimatePower(const EventVector& counter_diff, Tick active_ticks) const {
  if (active_ticks <= 0) {
    // Counters only advance while executing, so a nonzero diff with no
    // accounted active time means the tick accounting under-resolved a real
    // execution period. Attribute the dynamic energy to the minimum
    // accountable period (one tick) instead of silently reporting 0 W; a
    // zero diff genuinely means no execution and stays 0 W.
    if (EstimateDynamicEnergy(counter_diff) == 0.0) {
      return 0.0;
    }
    active_ticks = 1;
  }
  return EstimateEnergy(counter_diff, active_ticks) / TicksToSeconds(active_ticks);
}

}  // namespace eas
