// Master switchboard for the energy-aware scheduling features.
//
// Experiments toggle features against the baseline: the paper's
// "energy balancing disabled" runs use plain load balancing and least-loaded
// initial placement; "enabled" runs use the merged balancer, hot task
// migration, and energy-aware placement.

#ifndef SRC_CORE_ENERGY_SCHED_CONFIG_H_
#define SRC_CORE_ENERGY_SCHED_CONFIG_H_

#include <string>

#include "src/base/time.h"
#include "src/core/energy_balancer.h"
#include "src/core/hot_task_migrator.h"

namespace eas {

struct EnergySchedConfig {
  bool energy_balancing = true;
  bool hot_task_migration = true;
  bool energy_aware_placement = true;

  // Balancing policy selected by name through the BalancePolicyRegistry
  // (src/core/policy_registry.h): "energy_aware" is the paper's merged
  // dual-metric algorithm (Figure 4); "power_only" and "temperature_only"
  // are its single-metric strawmen. It only takes effect while
  // `energy_balancing` is true - disabling energy balancing always means
  // the stock "load_only" policy.
  std::string balancer_name = "energy_aware";

  // Balancing cadence (per CPU). Linux rebalances every ~100-200 ms busy.
  Tick balance_interval_ticks = 200;
  // Idle CPUs try to pull work much more eagerly.
  Tick idle_balance_interval_ticks = 10;
  // Hot-task-migration trigger check cadence.
  Tick hot_check_interval_ticks = 100;

  EnergyLoadBalancer::Options balancer;
  HotTaskMigrator::Options hot_migration;

  // Everything off: stock Linux behaviour (the paper's baseline).
  static EnergySchedConfig Baseline() {
    EnergySchedConfig config;
    config.energy_balancing = false;
    config.hot_task_migration = false;
    config.energy_aware_placement = false;
    return config;
  }

  // Everything on (the paper's policy).
  static EnergySchedConfig EnergyAware() { return EnergySchedConfig(); }
};

}  // namespace eas

#endif  // SRC_CORE_ENERGY_SCHED_CONFIG_H_
