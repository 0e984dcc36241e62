#include "src/counters/energy_model.h"

#include <cassert>

namespace eas {

EnergyModel EnergyModel::Default() {
  // Joules per kilo-event. Memory-bound work costs more energy per event but
  // sustains far lower event rates, reproducing the paper's observation that
  // memory-bound tasks (memrw, 38 W) run cooler than ALU-bound ones
  // (bitcnts, 61 W).
  EventWeights weights{};
  weights[EventIndex(EventType::kUopsRetired)] = 8e-6;
  weights[EventIndex(EventType::kIntAluOps)] = 10e-6;
  weights[EventIndex(EventType::kFpuOps)] = 25e-6;
  weights[EventIndex(EventType::kMemTransactions)] = 30e-6;
  weights[EventIndex(EventType::kL2CacheMisses)] = 45e-6;
  weights[EventIndex(EventType::kStackOps)] = 6e-6;
  return EnergyModel(weights, /*active_base_power_watts=*/18.0, /*halt_power_watts=*/13.6);
}

EnergyModel::EnergyModel(const EventWeights& weights, double active_base_power_watts,
                         double halt_power_watts)
    : weights_(weights),
      active_base_power_watts_(active_base_power_watts),
      halt_power_watts_(halt_power_watts) {}

double EnergyModel::NominalDynamicPower(const EventRates& rates) const {
  return DynamicEnergy(rates) / kTickSeconds;
}

double EnergyModel::NominalTotalPower(const EventRates& rates) const {
  return active_base_power_watts_ + NominalDynamicPower(rates);
}

EventRates EnergyModel::RatesForTargetPower(const EventRates& signature,
                                            double target_power_watts) const {
  const double dynamic_target = target_power_watts - active_base_power_watts_;
  assert(dynamic_target >= 0.0);
  const double signature_power = NominalDynamicPower(signature);
  assert(signature_power > 0.0);
  const double scale = dynamic_target / signature_power;
  EventRates rates{};
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    rates[i] = signature[i] * scale;
  }
  return rates;
}

}  // namespace eas
