// Accounting observer: records the traces the paper's evaluation reports.
//
// Attached to the SimulationEngine as a TickObserver, it samples thermal
// power per logical CPU, true temperature per package, and (optionally) the
// CPU residency of selected tasks (Figure 9) on a fixed sampling grid. The
// Experiment harness moves the collected series into its RunResult.

#ifndef SRC_SIM_ACCOUNTING_H_
#define SRC_SIM_ACCOUNTING_H_

#include <vector>

#include "src/base/series.h"
#include "src/sim/simulation_engine.h"

namespace eas {

class Accounting : public TickObserver {
 public:
  struct Options {
    Tick sample_interval_ticks = 500;
  };

  // Creates one thermal-power series per logical CPU ("cpuN") and one
  // temperature series per package ("physN") of `state`. The sampling grid
  // is anchored at `state`'s current tick, so series ticks are relative to
  // the moment the accounting was created (run-start), not absolute machine
  // time - a second Run on the same machine starts its traces at 0 again.
  Accounting(const SimulationState& state, const Options& options);

  // Adds a CPU-residency trace for `task` (named "<program>#<id>"). Call
  // before the first sampled tick.
  void TraceTask(const Task* task);

  // Sizes every series created so far for a run of `duration_ticks`: the
  // grid holds at most duration / interval + 1 samples. Call after the last
  // TraceTask.
  void ReserveFor(Tick duration_ticks);

  void OnTick(const SimulationState& state) override;

  // The next now value on the sampling grid: OnTick samples when the ticks
  // elapsed since creation hit a multiple of the interval, and is a no-op
  // everywhere else, so the engine's skip-ahead can jump between grid
  // points.
  Tick NextObservableTick(Tick now) const override {
    const Tick interval = options_.sample_interval_ticks;
    const Tick since = now - start_tick_;
    const Tick elapsed = since < 0 ? 0 : since;
    const Tick rounded = ((elapsed + interval - 1) / interval) * interval;
    return start_tick_ + rounded + 1;
  }

  SeriesSet& thermal_power() { return thermal_power_; }
  SeriesSet& temperature() { return temperature_; }
  SeriesSet& task_cpu() { return task_cpu_; }
  SeriesSet& frequency() { return frequency_; }

 private:
  Options options_;
  Tick start_tick_;
  SeriesSet thermal_power_;
  SeriesSet temperature_;
  SeriesSet task_cpu_;
  // Per-package DVFS frequency multiplier, sampled on the same grid. Only
  // created (and sampled) when the state's machine runs a governor other
  // than "none" - an ungoverned machine's traces stay exactly as before.
  SeriesSet frequency_;
  bool record_frequency_ = false;
  std::vector<const Task*> traced_;
};

}  // namespace eas

#endif  // SRC_SIM_ACCOUNTING_H_
