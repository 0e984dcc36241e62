// NormalStream: a private stream of standard normals.
//
// The PMC noise model draws six normals per running task per tick, plus the
// phase-duration and sleep jitter, all from the task's own seeded stream.
// NormalStream owns that stream's generator and hands the values out from a
// lookahead block filled by Rng::FillGaussians, which amortises the polar
// method's rejection branch and its log/sqrt/divide over a whole block.

#ifndef SRC_BASE_NORMAL_STREAM_H_
#define SRC_BASE_NORMAL_STREAM_H_

#include <cstddef>
#include <cstdint>

#include "src/base/rng.h"

namespace eas {

// The generator is private and nothing else reads it, so drawing ahead is
// unobservable: Next() returns exactly the sequence NextGaussian() on a
// plain Rng(seed) would return.
class NormalStream {
 public:
  explicit NormalStream(std::uint64_t seed) : rng_(seed) {}

  double Next() {
    if (next_ == kLookahead) {
      rng_.FillGaussians(block_, kLookahead);
      next_ = 0;
    }
    return block_[next_++];
  }

  // Gaussian with the given mean and standard deviation (as Rng::Gaussian).
  double Gaussian(double mean, double stddev) { return mean + stddev * Next(); }

 private:
  static constexpr std::size_t kLookahead = 32;

  Rng rng_;
  std::size_t next_ = kLookahead;
  double block_[kLookahead] = {};
};

}  // namespace eas

#endif  // SRC_BASE_NORMAL_STREAM_H_
