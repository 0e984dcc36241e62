// Ground-truth silicon energy model.
//
// The simulator charges a fixed amount of energy per event occurrence, plus
// static power: an active physical CPU burns a base power regardless of the
// instruction mix, and a halted physical CPU (idle loop or thermal throttling
// executing hlt) burns the measured 13.6 W of the paper's Xeons. This class
// is the "real hardware": the estimator never reads its weights directly;
// it uses weights recovered by calibration against a noisy power meter.

#ifndef SRC_COUNTERS_ENERGY_MODEL_H_
#define SRC_COUNTERS_ENERGY_MODEL_H_

#include "src/base/time.h"
#include "src/counters/event_types.h"

namespace eas {

// Per-event energies in joules per kilo-event.
using EventWeights = std::array<double, kNumEventTypes>;

class EnergyModel {
 public:
  // Default weights; chosen so realistic event rates span the paper's
  // 38 W - 61 W program range (Table 2).
  static EnergyModel Default();

  EnergyModel(const EventWeights& weights, double active_base_power_watts,
              double halt_power_watts);

  // Dynamic energy (J) for a batch of events.
  double DynamicEnergy(const EventVector& events) const {
    double energy = 0.0;
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      energy += weights_[i] * events[i];
    }
    return energy;
  }

  // Dynamic energy under DVFS: `energy_scale` is the P-state's per-event
  // factor (V^2 - the frequency factor is already in the event count, which
  // follows execution speed). P0's scale is exactly 1.0, so the result is
  // bit-identical to the unscaled overload at full speed.
  double DynamicEnergy(const EventVector& events, double energy_scale) const {
    return DynamicEnergy(events) * energy_scale;
  }

  // Dynamic power (W) of a task phase emitting `rates` kilo-events per tick.
  double NominalDynamicPower(const EventRates& rates) const;

  // Total steady power (W) of a physical CPU running one task with `rates`
  // and no co-runner, as a multimeter would see it.
  double NominalTotalPower(const EventRates& rates) const;

  // Scales a relative event signature so the resulting rates, run alone on a
  // physical CPU, dissipate `target_power_watts` total. This is how workload
  // models hit Table 2's wattages exactly.
  EventRates RatesForTargetPower(const EventRates& signature, double target_power_watts) const;

  const EventWeights& weights() const { return weights_; }
  double active_base_power() const { return active_base_power_watts_; }
  double halt_power() const { return halt_power_watts_; }

 private:
  EventWeights weights_;
  double active_base_power_watts_;
  double halt_power_watts_;
};

}  // namespace eas

#endif  // SRC_COUNTERS_ENERGY_MODEL_H_
