// A workload: what arrives on the machine, and when.
//
// The paper's experiments spawn a fixed task set at time zero, but diverse
// scenarios (open-loop arrivals, trace replay) inject tasks mid-run. A
// Workload is therefore a list of TaskArrivals - (tick, program, nice) -
// plus the ownership needed to make it self-contained: generated programs
// and any ProgramLibrary the arrival pointers reach into are kept alive by
// the workload itself, so a Workload can be built by a factory, copied into
// ExperimentSpecs and handed across threads without dangling.

#ifndef SRC_WORKLOADS_WORKLOAD_H_
#define SRC_WORKLOADS_WORKLOAD_H_

#include <memory>
#include <vector>

#include "src/base/time.h"
#include "src/task/program.h"

namespace eas {

// The most tasks one workload spec or trace may describe. Workload text
// arrives from untrusted requests, and every arrival is held by every spec
// of a sweep, so a count must be bounded before anything is allocated.
inline constexpr long long kMaxWorkloadTasks = 1'000'000;

struct TaskArrival {
  Tick tick = 0;                     // when the task is spawned (0 = run start)
  const Program* program = nullptr;  // what it executes
  int nice = 0;                      // spawn priority
};

class Workload {
 public:
  Workload() = default;

  // The legacy shape: every program arrives at tick 0. Implicit so the
  // existing builders (MixedWorkload etc.) assign directly.
  Workload(std::vector<const Program*> programs);  // NOLINT(runtime/explicit)

  // Appends one arrival. Arrivals may be added in any order; arrivals() is
  // kept sorted by tick (stable: ties keep insertion order).
  void Add(const Program& program, Tick tick = 0, int nice = 0);

  // Takes ownership of a generated program and returns the stable pointer to
  // schedule it with.
  const Program* Own(std::unique_ptr<Program> program);

  // Keeps `resource` (e.g. a ProgramLibrary the arrival pointers point into)
  // alive as long as any copy of this workload exists.
  void Retain(std::shared_ptr<const void> resource);

  // Arrivals sorted by tick, ties in insertion order.
  const std::vector<TaskArrival>& arrivals() const;

  std::size_t size() const { return arrivals_.size(); }
  bool empty() const { return arrivals_.empty(); }

  // Number of arrivals at tick <= 0 (the initial spawn set).
  std::size_t InitialTasks() const;

 private:
  // Shared, not unique: ExperimentSpecs copy workloads freely (seed sweeps,
  // policy grids) and programs are immutable once built.
  std::vector<std::shared_ptr<const Program>> owned_;
  std::vector<std::shared_ptr<const void>> retained_;
  mutable std::vector<TaskArrival> arrivals_;
  mutable bool sorted_ = true;
};

}  // namespace eas

#endif  // SRC_WORKLOADS_WORKLOAD_H_
