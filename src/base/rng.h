// Deterministic pseudo random number generator.
//
// All stochastic behaviour in the simulator (event rate noise, phase
// durations, meter error) is driven by explicitly seeded Rng instances so
// that every experiment is reproducible bit-for-bit. The generator is
// xoshiro256** seeded via splitmix64. The per-draw members are inline: the
// PMC noise model calls them several times per running task per tick.

#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace eas {

class Rng {
 public:
  // Seeds the generator. Two generators with the same seed produce the same
  // sequence on every platform.
  explicit Rng(std::uint64_t seed);

  // Next raw 64-bit value.
  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    // 53 random mantissa bits.
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t NextBelow(std::uint64_t n);

  // Standard normal variate (Marsaglia polar method: a uniform point in the
  // unit disc yields two normals; the second is cached as the spare).
  double NextGaussian() {
    if (has_spare_gaussian_) {
      has_spare_gaussian_ = false;
      return spare_gaussian_;
    }
    double u;
    double v;
    double s;
    do {
      u = Uniform(-1.0, 1.0);
      v = Uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_gaussian_ = v * factor;
    has_spare_gaussian_ = true;
    return u * factor;
  }

  // Writes exactly the values `n` sequential NextGaussian() calls would
  // return, and leaves the generator in exactly the state they would leave
  // (pending spare included), bit for bit. Candidate points are drawn in
  // blocks of at most kFillBlockPairs, and a block never asks for more
  // candidates than the normals still owed need, so nothing is drawn that
  // the sequential calls would not have drawn. Within a block the rejection
  // test is a branch-free compaction, and the log, sqrt and divide run as
  // separate loops over the accepted points.
  void FillGaussians(double* out, std::size_t n);

  // Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) { return mean + stddev * NextGaussian(); }

  // Bernoulli trial with probability p of returning true.
  bool Chance(double p);

  // Derives an independent generator; useful for giving each task its own
  // stream while keeping the experiment controlled by one master seed.
  Rng Fork();

 private:
  static constexpr std::size_t kFillBlockPairs = 32;

  static std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace eas

#endif  // SRC_BASE_RNG_H_
