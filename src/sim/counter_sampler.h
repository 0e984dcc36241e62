// Counter-sampling phase (paper Section 3.2).
//
// Consumes the counter events the scheduler tick produced: accumulates them
// into the per-CPU counter blocks, runs the calibrated estimator to
// attribute per-tick energy to the running tasks and the thermal-power
// metric, credits halt power to inactive siblings, and sums the package's
// *true* dynamic energy for the thermal model.

#ifndef SRC_SIM_COUNTER_SAMPLER_H_
#define SRC_SIM_COUNTER_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/counters/event_types.h"
#include "src/sim/simulation_state.h"

namespace eas {

class CounterSampler {
 public:
  // Processes one executed tick of `physical`. `events[i]` are the counter
  // events of `active[i]`. Returns the package's true dynamic energy (J).
  double Sample(SimulationState& state, std::size_t physical,
                const std::vector<int>& active,
                const std::vector<EventVector>& events);

 private:
  // Reusable per-logical-CPU active mask: replaces the O(active x siblings)
  // membership scan when crediting halt power to inactive siblings. Only the
  // bits set for this call are touched, and they are cleared before
  // returning, so the mask stays all-zero between calls.
  std::vector<std::uint8_t> active_mask_;
};

}  // namespace eas

#endif  // SRC_SIM_COUNTER_SAMPLER_H_
