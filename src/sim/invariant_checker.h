// InvariantChecker: hard-fails a faulted run whose state stops making sense.
//
// A TickObserver attached by Experiment::Run whenever the config carries a
// fault plan. After every tick it sweeps the machine and throws
// std::runtime_error (naming the tick and the violated invariant) if chaos
// broke conservation anywhere:
//
//   - task conservation: every runqueue member's task->cpu() names that
//     queue, no task appears on two queues (or twice on one), and every
//     task the table says is on a CPU is found exactly once;
//   - offline confinement: no runqueue member sits on an offlined CPU;
//   - counter consistency: the sum of per-queue nr_running equals the
//     machine-wide total_runnable() the skip-ahead planner trusts;
//   - offline ledger: the state's offline_cpu_ticks equals the checker's
//     own per-tick accumulation of the offline-CPU count;
//   - residency accounting: a governed package's P-state residency total
//     advances exactly one tick per tick (fault windows must bend *which*
//     state is resident, never drop ticks);
//   - physics sanity: package true power and die temperature stay finite
//     (power also non-negative).
//
// The checker deliberately runs the same sweep on every tick including
// quiescent-span boundaries; its NextObservableTick keeps the default
// "every tick is observable", which (together with the engine gating in
// Advance) pins faulted runs to observer-visible per-tick stepping.

#ifndef SRC_SIM_INVARIANT_CHECKER_H_
#define SRC_SIM_INVARIANT_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/simulation_engine.h"

namespace eas {

class InvariantChecker : public TickObserver {
 public:
  // Baselines the ledgers against `state` so the checker can attach to a
  // machine that already ran (residency and offline ticks are deltas).
  explicit InvariantChecker(const SimulationState& state);

  void OnTick(const SimulationState& state) override;

  std::int64_t ticks_checked() const { return ticks_checked_; }

 private:
  [[noreturn]] void Violate(const SimulationState& state, const std::string& what) const;

  std::int64_t ticks_checked_ = 0;
  std::int64_t offline_ticks_baseline_ = 0;
  std::int64_t offline_ticks_accumulated_ = 0;
  std::vector<Tick> residency_baseline_;  // per package, governed only
  // Scratch: tasks seen this sweep, indexed by task id (ids are assigned
  // sequentially from 1, so the vector stays dense).
  std::vector<std::uint8_t> seen_;
};

}  // namespace eas

#endif  // SRC_SIM_INVARIANT_CHECKER_H_
