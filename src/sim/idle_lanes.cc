#include "src/sim/idle_lanes.h"

#include <algorithm>
#include <bit>
#include <cstddef>

namespace eas {
namespace {

// Two lanes per 128-bit register through the GCC/Clang vector extension:
// element-wise +, - and * are the scalar IEEE-754 double operations, so a
// lane computes exactly what the scalar expression computes. (The build is
// ISO C++20, where GCC does not contract a * b + c into an FMA.)
typedef double Vec2 __attribute__((vector_size(16)));
typedef std::int64_t Bits2 __attribute__((vector_size(16)));

// Vectors per register block. Each lane is one dependent sub-mul-add chain
// per step, so a step's latency is fixed; eight independent vectors (16
// lanes: the paper box's 8 CPUs plus 8 packages) keep the FP units busy
// during it while the values stay in registers.
constexpr std::size_t kBlockVectors = 8;
constexpr std::size_t kBlockLanes = 2 * kBlockVectors;

// Steps between fixed-point tests. Once every lane maps to itself, further
// steps repeat the same bits, so testing only the last step of a chunk can
// overrun the fixed point by a few steps but never changes the result.
constexpr std::int64_t kStepsPerTest = 16;

// Advances `count` (<= kBlockLanes) lanes and returns the steps it ran.
// The unused lanes of the block are inert: all-zero, 0 + (0 - 0) * 0 ==
// +0.0, already a fixed point, so they neither change nor delay the
// all-lanes exit.
std::int64_t AdvanceBlock(IdleLane* lanes, std::size_t count, std::int64_t steps) {
  Vec2 value[kBlockVectors];
  Vec2 add[kBlockVectors];
  Vec2 sub[kBlockVectors];
  Vec2 mul[kBlockVectors];
#pragma GCC unroll 8
  for (std::size_t v = 0; v < kBlockVectors; ++v) {
    const IdleLane lo = 2 * v < count ? lanes[2 * v] : IdleLane{};
    const IdleLane hi = 2 * v + 1 < count ? lanes[2 * v + 1] : IdleLane{};
    value[v] = Vec2{lo.value, hi.value};
    add[v] = Vec2{lo.add, hi.add};
    sub[v] = Vec2{lo.sub, hi.sub};
    mul[v] = Vec2{lo.mul, hi.mul};
  }

  std::int64_t left = steps;
  while (left > 0) {
    const std::int64_t chunk = std::min(left, kStepsPerTest);
    left -= chunk;
    for (std::int64_t i = 1; i < chunk; ++i) {
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kBlockVectors; ++v) {
        value[v] = add[v] + (value[v] - sub[v]) * mul[v];
      }
    }
    // The chunk's last step also records whether any lane's bits moved.
    Bits2 moved = {0, 0};
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kBlockVectors; ++v) {
      const Vec2 next = add[v] + (value[v] - sub[v]) * mul[v];
      moved |= std::bit_cast<Bits2>(next) ^ std::bit_cast<Bits2>(value[v]);
      value[v] = next;
    }
    if ((moved[0] | moved[1]) == 0) {
      break;
    }
  }

  for (std::size_t lane = 0; lane < count; ++lane) {
    lanes[lane].value = value[lane / 2][lane % 2];
  }
  return steps - left;
}

}  // namespace

std::int64_t AdvanceIdleLanes(std::span<IdleLane> lanes, std::int64_t steps) {
  std::int64_t ran = 0;
  if (steps <= 0) {
    return ran;
  }
  for (std::size_t first = 0; first < lanes.size(); first += kBlockLanes) {
    ran = std::max(ran, AdvanceBlock(lanes.data() + first,
                                     std::min(lanes.size() - first, kBlockLanes), steps));
  }
  return ran;
}

}  // namespace eas
