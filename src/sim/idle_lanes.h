// The closed-form skip-ahead kernel: every recurrence an idle machine
// advances, stepped side by side.
//
// On a quiescent machine (no task runnable anywhere) a tick changes exactly
// two kinds of state, each a contraction with constant coefficients:
//  - every logical CPU's thermal-power average (ExpAverage::AddRateSample
//    with the CPU's constant idle share):   v <- (1-d)*rate + d*v
//  - every package's RC die temperature (RcThermalModel::Step at the
//    constant halt power):                   T <- t_ss + (T - t_ss)*decay
// Both fit one lane shape, value <- add + (value - sub) * mul:
//  - an average lane holds add = (1-d)*rate, sub = +0.0, mul = d; since
//    v - (+0.0) == v bitwise for every v and IEEE multiplication commutes,
//    it computes the average's update bit for bit;
//  - a thermal lane holds add = sub = t_ss, mul = decay, which is Step's
//    expression operand for operand.
// AdvanceIdleLanes replays `steps` ticks of every lane with the result
// bit-identical to the scalar per-tick loops.

#ifndef SRC_SIM_IDLE_LANES_H_
#define SRC_SIM_IDLE_LANES_H_

#include <cstdint>
#include <span>

namespace eas {

struct IdleLane {
  double value = 0.0;
  double add = 0.0;
  double sub = 0.0;
  double mul = 0.0;
};

// A thermal-power average with decay `decay` fed a constant rate;
// `blended` is the hoisted (1 - decay) * rate.
inline IdleLane AverageLane(double value, double blended, double decay) {
  return IdleLane{value, blended, 0.0, decay};
}

// An RC die temperature relaxing toward `t_ss` by `decay` per step.
inline IdleLane ThermalLane(double temperature, double t_ss, double decay) {
  return IdleLane{temperature, t_ss, t_ss, decay};
}

// Advances every lane by `steps` ticks in place. Lanes are independent; the
// kernel holds a block of them in vector registers for the whole span and
// stops early once every lane of the block maps to itself bitwise (a fixed
// point: every further step would repeat it). Returns the steps the
// slowest block actually ran: less than `steps` only when every lane
// reached its fixed point before the span ended.
std::int64_t AdvanceIdleLanes(std::span<IdleLane> lanes, std::int64_t steps);

}  // namespace eas

#endif  // SRC_SIM_IDLE_LANES_H_
