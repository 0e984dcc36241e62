#include "src/counters/counter_block.h"

namespace eas {

EventVector CounterBlock::DiffSince(const EventVector& since) const {
  EventVector diff{};
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    diff[i] = values_[i] - since[i];
  }
  return diff;
}

void CounterBlock::Reset() { values_ = EventVector{}; }

}  // namespace eas
