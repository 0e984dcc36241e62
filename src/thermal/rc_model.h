// Lumped RC thermal model (paper Section 4.2, Figure 2).
//
// One thermal resistor (heat sink to ambient) and one thermal capacitor
// (chip + heat sink) per physical CPU:
//
//   C * dT/dt = P - (T - T_ambient) / R
//
// Steady state gives T = T_ambient + R * P, so the maximum power a CPU can
// dissipate without exceeding a temperature limit is
//   P_max = (T_limit - T_ambient) / R.
// The step response is exponential with time constant tau = R * C, which the
// thermal-power exponential average is calibrated against (Section 4.3).
//
// In the simulator this model is both the ground truth (it produces the
// actual die temperature) and the model the scheduler assumes.

#ifndef SRC_THERMAL_RC_MODEL_H_
#define SRC_THERMAL_RC_MODEL_H_

#include <cmath>

namespace eas {

struct ThermalParams {
  double resistance = 0.30;     // K/W, heat sink to ambient
  double capacitance = 40.0;    // J/K, chip + heat sink
  double ambient = 22.0;        // deg C

  double TimeConstant() const { return resistance * capacitance; }
  double SteadyStateTemp(double power_watts) const { return ambient + resistance * power_watts; }
  double MaxPowerForTemp(double temp_limit) const { return (temp_limit - ambient) / resistance; }
  // Power level whose steady-state temperature equals `temp`; the inverse of
  // SteadyStateTemp, used to express temperature limits in the power domain.
  double PowerForTemp(double temp) const { return (temp - ambient) / resistance; }
};

class RcThermalModel {
 public:
  explicit RcThermalModel(const ThermalParams& params);

  // Advances the model by `dt_seconds` with `power_watts` dissipated: the
  // exact solution of the linear ODE over the step (unconditionally stable,
  // exact for constant power within the step),
  //   T(t+dt) = T_ss + (T(t) - T_ss) * exp(-dt / tau).
  void Step(double power_watts, double dt_seconds) {
    const double t_ss = params_.SteadyStateTemp(power_watts);
    const double decay = Decay(dt_seconds);
    temperature_ = t_ss + (temperature_ - t_ss) * decay;
  }

  // exp(-dt / tau), memoized on `dt_seconds`: the engine steps every package
  // by the same tick, so the exp() collapses to one compare. std::exp is
  // deterministic for identical arguments, so the memoized value is
  // bit-identical to recomputing it. The initial memo (dt 0, decay 1.0) is
  // exact too: exp(-0.0) == 1.0. The skip-ahead kernel reads it to replay
  // Step (src/sim/idle_lanes.h).
  double Decay(double dt_seconds) {
    if (dt_seconds != cached_dt_) {
      cached_dt_ = dt_seconds;
      cached_decay_ = std::exp(-dt_seconds / params_.TimeConstant());
    }
    return cached_decay_;
  }

  // Current die temperature (deg C).
  double temperature() const { return temperature_; }

  // Forces the temperature (initialization / tests).
  void SetTemperature(double temp) { temperature_ = temp; }

  const ThermalParams& params() const { return params_; }

 private:
  ThermalParams params_;
  double temperature_;
  double cached_dt_ = 0.0;
  double cached_decay_ = 1.0;
};

}  // namespace eas

#endif  // SRC_THERMAL_RC_MODEL_H_
