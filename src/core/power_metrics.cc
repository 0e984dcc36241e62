#include "src/core/power_metrics.h"

namespace eas {

CpuPowerState::CpuPowerState(double max_power_watts, double tau_seconds,
                             double initial_power_watts)
    : max_power_watts_(max_power_watts),
      thermal_average_(ExpAverage::WithTimeConstant(tau_seconds, kTickSeconds)) {
  thermal_average_.Reset(initial_power_watts);
}

}  // namespace eas
