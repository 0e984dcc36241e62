#include "src/base/rng.h"

#include <algorithm>
#include <cmath>

namespace eas {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

std::uint64_t Rng::NextBelow(std::uint64_t n) {
  // Rejection-free for our purposes; bias is negligible for small n.
  return NextU64() % n;
}

void Rng::FillGaussians(double* out, std::size_t n) {
  std::size_t i = 0;
  if (n > 0 && has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    out[i++] = spare_gaussian_;
  }
  // Scratch for one block. Only entries below `accepted` are read, each
  // after it is written; zeroing the arrays would cost ~15% of a block.
  double us[kFillBlockPairs];
  double vs[kFillBlockPairs];
  double ss[kFillBlockPairs];
  double factors[kFillBlockPairs];
  while (i < n) {
    // Each accepted candidate yields two normals, so ceil(owed / 2)
    // candidates is the fewest the sequential calls could consume.
    const std::size_t candidates = std::min(kFillBlockPairs, (n - i + 1) / 2);
    std::size_t accepted = 0;
    for (std::size_t c = 0; c < candidates; ++c) {
      const double u = Uniform(-1.0, 1.0);
      const double v = Uniform(-1.0, 1.0);
      const double s = u * u + v * v;
      us[accepted] = u;
      vs[accepted] = v;
      ss[accepted] = s;
      accepted += static_cast<std::size_t>(s < 1.0 && s != 0.0);
    }
    for (std::size_t a = 0; a < accepted; ++a) {
      factors[a] = std::log(ss[a]);
    }
    for (std::size_t a = 0; a < accepted; ++a) {
      factors[a] = std::sqrt(-2.0 * factors[a] / ss[a]);
    }
    for (std::size_t a = 0; a < accepted; ++a) {
      out[i++] = us[a] * factors[a];
      if (i == n) {
        // Only the block's last accepted pair can overshoot n, by one: its
        // second normal becomes the pending spare, as sequentially.
        spare_gaussian_ = vs[a] * factors[a];
        has_spare_gaussian_ = true;
        break;
      }
      out[i++] = vs[a] * factors[a];
    }
  }
}

bool Rng::Chance(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace eas
