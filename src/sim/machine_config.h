// Machine configuration: topology, thermal, energy model, policy switches.

#ifndef SRC_SIM_MACHINE_CONFIG_H_
#define SRC_SIM_MACHINE_CONFIG_H_

#include <cstdint>
#include <optional>

#include <string>

#include "src/core/energy_sched_config.h"
#include "src/counters/energy_model.h"
#include "src/task/energy_profile.h"
#include "src/thermal/cooling_profile.h"
#include "src/topo/cpu_topology.h"
#include "src/topo/frequency_domain.h"

namespace eas {

struct MachineConfig {
  CpuTopology topology = CpuTopology::PaperXSeries445(/*smt_enabled=*/false);
  CoolingProfile cooling = CoolingProfile::PaperXSeries445();
  EnergyModel model = EnergyModel::Default();

  // Calibrated estimator weights. If unset, the machine calibrates on
  // construction (the realistic path); tests can inject oracle weights.
  std::optional<EventWeights> estimator_weights;
  double meter_error_stddev = 0.02;

  // Maximum power assignment per *physical* package:
  //  - explicit_max_power_physical set: the experiment dictates it (e.g.
  //    Section 6.1 sets 60 W, Section 6.4 sets 40 W);
  //  - otherwise: derived from `temp_limit` and each package's cooling
  //    (Section 6.2's per-CPU calibration), P_max = (T_limit - T_amb) / R.
  std::optional<double> explicit_max_power_physical;
  double temp_limit = 38.0;

  // Whether thermal throttling is enforced (Sections 6.2/6.4) or only
  // observed (Section 6.1 plots the would-be limit).
  bool throttling_enabled = false;
  double throttle_hysteresis_watts = 0.5;

  // DVFS (the competing power-capping mechanism the paper positions hlt
  // throttling against): the per-package P-state ladder and the frequency
  // governor driving it, selected by name through the
  // FrequencyGovernorRegistry (src/freq). "none" pins every package at P0
  // and the engine skips the frequency phase entirely, so such a machine is
  // bit-identical to one predating the frequency layer.
  PStateTable pstates = PStateTable::Default();
  std::string frequency_governor = "none";

  // Whether a real governor drives the P-states. The single source of truth
  // for every "skip the frequency machinery" special case (engine phase,
  // traces, result columns) - they must all agree for the ungoverned
  // bit-identity guarantee to hold.
  bool governed() const { return frequency_governor != "none"; }

  // Seeded fault-injection plan (src/fault/fault_plan.h grammar), parsed by
  // the SimulationState constructor; empty = no fault layer. Mirrors
  // governed(): the single source of truth for every "skip the fault
  // machinery" special case (engine phase, skip-ahead gating, invariant
  // checker, result columns), so a fault-free run is bit-identical to one
  // predating the fault layer.
  std::string fault_spec;
  bool faulted() const { return !fault_spec.empty(); }

  // Scheduling policy switches (the paper's contribution vs baseline).
  EnergySchedConfig sched = EnergySchedConfig::EnergyAware();

  Tick timeslice_ticks = kDefaultTimesliceTicks;

  // Exponential-average weight of a task's energy profile for one standard
  // timeslice (Equation 2's p). The ablation bench sweeps this.
  double profile_sample_weight = EnergyProfile::kDefaultSampleWeight;

  // SMT co-run slowdown: per-thread speed when both siblings execute.
  double smt_corun_speed = 0.65;

  // Cache-warmup penalty after a migration: the task runs at `warmup_speed`
  // for this many ticks (longer if the migration crossed a node).
  Tick warmup_ticks_same_node = 3;
  Tick warmup_ticks_cross_node = 12;
  double warmup_speed = 0.5;

  // Completed tasks restart their program (throughput accounting).
  bool respawn_completed = true;

  // Closed-form skip-ahead over quiescent spans: when every runqueue is
  // empty and the balancing policy guarantees idle passes are no-ops, the
  // engine advances to the next interesting tick (wake, arrival, accounting
  // sample) through a reduced kernel that reproduces the naive tick's state
  // updates bit-identically. The RunRequest key `skip-ahead` / eastool's
  // --no-skip-ahead flips this for A/B timing; results are identical either
  // way, only wall-clock changes.
  bool skip_ahead = true;

  // Retired: the engine has one tick, the interleaved per-package loop, and
  // no intra-run workers. The field is still declared only because the
  // repository benchmark (perfbench/) reads it; SimulationState's
  // constructor rejects any nonzero value.
  std::size_t intra_run_threads = 0;

  std::uint64_t seed = 42;
};

}  // namespace eas

#endif  // SRC_SIM_MACHINE_CONFIG_H_
