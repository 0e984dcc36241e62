// Per-CPU cooling heterogeneity (paper Section 4, Table 3).
//
// "One processor may be located closer to some cooling component, such as a
// fan or an air inlet, than another one and may thus be able to dissipate
// more energy per time unit without overheating."
//
// A cooling profile assigns each physical CPU its thermal parameters. The
// default 8-way profile mirrors the paper's machine: physical CPUs 0 and 3
// (logical 0/8 and 3/11) have poor thermal properties, physical 4 (logical
// 4/12) is mediocre, the rest never throttle under the paper's workload.

#ifndef SRC_THERMAL_COOLING_PROFILE_H_
#define SRC_THERMAL_COOLING_PROFILE_H_

#include <cstddef>
#include <vector>

#include "src/thermal/rc_model.h"

namespace eas {

class CoolingProfile {
 public:
  // One entry per physical CPU, in package order.
  explicit CoolingProfile(std::vector<ThermalParams> params);

  // Uniform cooling: every physical CPU gets `params`.
  static CoolingProfile Uniform(std::size_t num_physical, const ThermalParams& params);

  // The heterogeneous 8-way profile used by the Table 3 / Fig. 8 experiments.
  // All CPUs share tau ~= 12 s; thermal resistance varies so that the
  // steady-state max power at the experiment's temperature limit spans
  // roughly 44 W (poor) to 67 W (good).
  static CoolingProfile PaperXSeries445();

  const ThermalParams& ParamsFor(std::size_t physical_cpu) const;
  std::size_t num_physical() const { return params_.size(); }

 private:
  std::vector<ThermalParams> params_;
};

}  // namespace eas

#endif  // SRC_THERMAL_COOLING_PROFILE_H_
