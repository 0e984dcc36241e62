#include "src/base/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/base/normal_stream.h"

namespace eas {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextDouble();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianScaling) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Gaussian(10.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(19);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  // The child stream should not be identical to the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The block filler's contract: the same values, bit for bit, as n
// sequential draws, and the same end state - the pending spare and the raw
// stream position - so a caller can mix the two freely.
TEST(RngTest, FillGaussiansMatchesSequentialDraws) {
  const std::size_t sizes[] = {0, 1, 2, 3, 5, 31, 32, 33, 64, 1001};
  std::vector<double> filled;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (const bool pending_spare : {false, true}) {
      for (const std::size_t n : sizes) {
        Rng block(seed);
        Rng sequential(seed);
        if (pending_spare) {
          ASSERT_TRUE(SameBits(block.NextGaussian(), sequential.NextGaussian()));
        }
        filled.assign(n, 0.0);
        block.FillGaussians(filled.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(SameBits(filled[i], sequential.NextGaussian()))
              << "seed " << seed << " n " << n << " spare " << pending_spare << " index " << i;
        }
        ASSERT_TRUE(SameBits(block.NextGaussian(), sequential.NextGaussian()))
            << "spare state, seed " << seed << " n " << n << " spare " << pending_spare;
        ASSERT_EQ(block.NextU64(), sequential.NextU64())
            << "stream position, seed " << seed << " n " << n << " spare " << pending_spare;
      }
    }
  }
}

TEST(NormalStreamTest, MatchesSequentialDrawsAcrossBlocks) {
  NormalStream stream(77);
  Rng reference(77);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(SameBits(stream.Gaussian(0.0, 0.3), reference.Gaussian(0.0, 0.3))) << i;
  }
}

}  // namespace
}  // namespace eas
