// Experiment harness: runs workloads on a Machine and collects the
// quantities the paper's evaluation reports (thermal power traces, migration
// counts, throttle percentages, throughput).

#ifndef SRC_SIM_EXPERIMENT_H_
#define SRC_SIM_EXPERIMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/series.h"
#include "src/sim/machine.h"
#include "src/task/program.h"
#include "src/workloads/workload.h"

namespace eas {

struct RunResult {
  // Thermal power of every logical CPU, sampled over the run.
  SeriesSet thermal_power;
  // True temperature of every physical package.
  SeriesSet temperature;
  // Logical CPU of every task over time (Figure 9's residency trace);
  // kInvalidCpu while sleeping.
  SeriesSet task_cpu;
  // Frequency multiplier of every physical package over time. Only recorded
  // when the machine ran a frequency governor other than "none".
  SeriesSet frequency;

  std::int64_t migrations = 0;
  std::int64_t completions = 0;
  double work_done_ticks = 0.0;
  double duration_seconds = 0.0;

  // Per logical CPU fraction of time spent throttled (Table 3). A CPU that
  // had runnable demand at some point reports the fraction of run ticks the
  // package halt kept its task from running; a CPU with zero demand the
  // whole run reports its package's halt fraction (the hlt duty cycle it
  // would have experienced), so per-package halt is visible even on
  // all-sleeper packages.
  std::vector<double> throttled_fraction;

  // DVFS columns, populated only under a governor other than "none": per
  // logical CPU, the fraction of run ticks its package spent in each
  // P-state, and the tick-weighted average frequency multiplier.
  std::vector<std::vector<double>> pstate_residency;
  std::vector<double> average_frequency;

  // Fault-injection columns, populated only when the config carried a fault
  // plan (the DVFS-columns pattern: absent fields emit no CSV columns, so a
  // fault-free run's records stay byte-identical to pre-fault captures).
  std::optional<std::int64_t> faults_fired;
  std::optional<std::int64_t> offline_cpu_ticks;

  // Work per second: the throughput measure used for the paper's
  // "increase in throughput" numbers. (Tasks have fixed-size work units, so
  // work/second is proportional to tasks finished per time unit but does not
  // quantize at run boundaries.)
  double Throughput() const {
    return duration_seconds > 0.0 ? work_done_ticks / duration_seconds : 0.0;
  }

  double AverageThrottledFraction() const;

  // Mean of the per-CPU average frequency multipliers; 1.0 for an
  // ungoverned run (no DVFS columns means every package sat at P0).
  double AverageFrequencyMultiplier() const;

  double MaxThermalSpreadAfter(Tick tick) const;
};

class Experiment {
 public:
  struct Options {
    Tick duration_ticks = 900'000;     // 15 minutes, the paper's run length
    Tick sample_interval_ticks = 500;  // trace sampling period
    bool record_task_cpu = false;      // Figure 9 residency trace
  };

  Experiment(const MachineConfig& config, const Options& options);

  // Runs `workload` for the configured duration: arrivals at tick <= 0 spawn
  // before the first tick, later arrivals are injected mid-run at their
  // tick (arrivals at or past the duration never spawn). Only the initial
  // spawn set is traced when `record_task_cpu` is set - mid-run arrivals
  // would not share the sampling grid's start.
  RunResult Run(const Workload& workload);

  Machine& machine() { return *machine_; }

 private:
  Options options_;
  std::unique_ptr<Machine> machine_;
};

// Relative throughput increase of `test` over `baseline` (e.g. 0.05 = +5%).
double ThroughputIncrease(const RunResult& baseline, const RunResult& test);

}  // namespace eas

#endif  // SRC_SIM_EXPERIMENT_H_
