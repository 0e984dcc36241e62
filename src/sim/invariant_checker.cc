#include "src/sim/invariant_checker.h"

#include <cmath>
#include <stdexcept>

namespace eas {

InvariantChecker::InvariantChecker(const SimulationState& state)
    : offline_ticks_baseline_(state.offline_cpu_ticks()) {
  if (state.config().governed()) {
    residency_baseline_.reserve(state.num_physical());
    for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
      residency_baseline_.push_back(state.freq_domain(phys).total_ticks());
    }
  }
}

void InvariantChecker::Violate(const SimulationState& state, const std::string& what) const {
  throw std::runtime_error("invariant violated at tick " + std::to_string(state.now()) + ": " +
                           what);
}

void InvariantChecker::OnTick(const SimulationState& state) {
  ++ticks_checked_;

  // Task conservation sweep: every queue member belongs to its queue, no
  // task is double-counted, and the per-queue totals match the machine-wide
  // counter the skip-ahead planner trusts.
  seen_.assign(state.tasks().size() + 1, 0);
  std::int64_t members = 0;
  std::int64_t nr_running_sum = 0;
  for (std::size_t i = 0; i < state.num_cpus(); ++i) {
    const int cpu = static_cast<int>(i);
    const Runqueue& rq = state.runqueue(cpu);
    nr_running_sum += static_cast<std::int64_t>(rq.nr_running());
    if (!state.CpuOnline(cpu) && rq.nr_running() != 0) {
      Violate(state, "offline cpu " + std::to_string(cpu) + " holds " +
                         std::to_string(rq.nr_running()) + " task(s)");
    }
    auto check_member = [&](const Task* task, bool running) {
      if (task->cpu() != cpu) {
        Violate(state, "task " + std::to_string(task->id()) + " on cpu " + std::to_string(cpu) +
                           "'s queue but task->cpu() says " + std::to_string(task->cpu()));
      }
      const TaskState expected = running ? TaskState::kRunning : TaskState::kRunnable;
      if (task->state() != expected) {
        Violate(state, "task " + std::to_string(task->id()) + " on cpu " + std::to_string(cpu) +
                           " in wrong state");
      }
      std::uint8_t& mark = seen_[static_cast<std::size_t>(task->id())];
      if (mark != 0) {
        Violate(state, "task " + std::to_string(task->id()) + " double-counted (second sighting on cpu " +
                           std::to_string(cpu) + ")");
      }
      mark = 1;
      ++members;
    };
    if (rq.current() != nullptr) {
      check_member(rq.current(), /*running=*/true);
    }
    for (const Task* task : rq.queued()) {
      check_member(task, /*running=*/false);
    }
  }
  if (nr_running_sum != state.total_runnable()) {
    Violate(state, "sum of nr_running (" + std::to_string(nr_running_sum) +
                       ") != total_runnable (" + std::to_string(state.total_runnable()) +
                       ")");
  }

  // Reverse direction: every task the table says occupies a CPU must have
  // been found on a queue - a task neither queued, running, sleeping nor
  // finished has been lost.
  std::int64_t expected_members = 0;
  for (const Task* task : state.tasks()) {
    if (SimulationState::TaskCpu(*task) != kInvalidCpu) {
      ++expected_members;
    }
  }
  if (expected_members != members) {
    Violate(state, std::to_string(expected_members - members) + " task(s) lost (" +
                       std::to_string(expected_members) + " claim a cpu, " +
                       std::to_string(members) + " found on queues)");
  }

  // Offline ledger: the state appends the live offline count once per tick;
  // the checker accumulates the same quantity independently.
  offline_ticks_accumulated_ += state.offline_cpu_count();
  if (state.offline_cpu_ticks() - offline_ticks_baseline_ != offline_ticks_accumulated_) {
    Violate(state, "offline-cpu tick ledger out of balance (state " +
                       std::to_string(state.offline_cpu_ticks() - offline_ticks_baseline_) +
                       ", observed " + std::to_string(offline_ticks_accumulated_) + ")");
  }

  // Residency accounting balances across fault windows: a governed package
  // accounts exactly one residency tick per tick, emergencies and clamps
  // included.
  if (state.config().governed()) {
    for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
      if (state.freq_domain(phys).total_ticks() - residency_baseline_[phys] != ticks_checked_) {
        Violate(state, "package " + std::to_string(phys) + " residency total drifted");
      }
    }
  }

  // Physics sanity: chaos must never drive the models out of their domain.
  for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
    const double power = state.TruePower(phys);
    const double temp = state.shard(phys).thermal.temperature();
    if (!std::isfinite(power) || power < 0.0) {
      Violate(state, "package " + std::to_string(phys) + " true power " + std::to_string(power));
    }
    if (!std::isfinite(temp)) {
      Violate(state, "package " + std::to_string(phys) + " temperature not finite");
    }
  }
}

}  // namespace eas
