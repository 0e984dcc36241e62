#include "src/thermal/rc_model.h"

#include <cassert>

namespace eas {

RcThermalModel::RcThermalModel(const ThermalParams& params)
    : params_(params), temperature_(params.ambient) {
  assert(params.resistance > 0.0);
  assert(params.capacitance > 0.0);
}

}  // namespace eas
