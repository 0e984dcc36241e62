#include "src/sim/accounting.h"

#include <string>

namespace eas {

Accounting::Accounting(const SimulationState& state, const Options& options)
    : options_(options), start_tick_(state.now()) {
  for (std::size_t cpu = 0; cpu < state.num_cpus(); ++cpu) {
    thermal_power_.Create("cpu" + std::to_string(cpu));
  }
  for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
    temperature_.Create("phys" + std::to_string(phys));
  }
  record_frequency_ = state.config().governed();
  if (record_frequency_) {
    for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
      frequency_.Create("freq" + std::to_string(phys));
    }
  }
}

void Accounting::TraceTask(const Task* task) {
  task_cpu_.Create(task->name() + "#" + std::to_string(task->id()));
  traced_.push_back(task);
}

void Accounting::ReserveFor(Tick duration_ticks) {
  if (duration_ticks <= 0) {
    return;
  }
  const auto samples =
      static_cast<std::size_t>(duration_ticks / options_.sample_interval_ticks + 1);
  for (SeriesSet* set : {&thermal_power_, &temperature_, &task_cpu_, &frequency_}) {
    for (std::size_t i = 0; i < set->size(); ++i) {
      set->at(i).Reserve(samples);
    }
  }
}

void Accounting::OnTick(const SimulationState& state) {
  // Observers run after the tick counter advanced, so the tick that just
  // executed is now()-1; sample it, relative to the anchor, on the grid
  // 0, interval, 2*interval, ...
  const Tick tick = state.now() - 1 - start_tick_;
  if (tick < 0 || tick % options_.sample_interval_ticks != 0) {
    return;
  }
  for (std::size_t cpu = 0; cpu < state.num_cpus(); ++cpu) {
    thermal_power_.at(cpu).Add(tick, state.ThermalPower(static_cast<int>(cpu)));
  }
  for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
    temperature_.at(phys).Add(tick, state.Temperature(phys));
  }
  if (record_frequency_) {
    for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
      frequency_.at(phys).Add(tick, state.freq_domain(phys).frequency_multiplier());
    }
  }
  for (std::size_t i = 0; i < traced_.size(); ++i) {
    task_cpu_.at(i).Add(tick, static_cast<double>(SimulationState::TaskCpu(*traced_[i])));
  }
}

}  // namespace eas
