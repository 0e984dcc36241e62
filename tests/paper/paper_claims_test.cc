// The paper's claims as checked data. Each evaluated figure is a batch of
// requests under bench/paper/ (replayable with `eastool --batch`), and each
// claim the paper makes about it is a row below: a metric over the batch's
// runs by name (runs sharing a name, like Figure 8's seeds, give their mean),
// the paper's band and a status.
//   holds     the measured value must lie inside the band.
//   deviates  the value is pinned at the metric's precision, so it cannot
//             move unnoticed; if it enters the band, flip the row to holds.
// A band is what the paper printed: a value stands for every value that
// rounds to it (15.2% is [15.15, 15.25]), a range for its rounded ends,
// "exceeds 50 W" for everything above 50. Bands are never widened to turn a
// deviation into a pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/run_request.h"
#include "src/api/run_session.h"

namespace eas {
namespace {

enum class Metric {
  kMigrations,
  kAvgThrottlePct,     // throttled share of ticks, averaged over CPUs
  kMaxCpuThrottlePct,  // throttled share of ticks on the most throttled CPU
  kPeakThermalW,       // largest sampled per-CPU thermal power
  kGainPct,            // throughput of `run` over that of `baseline`
};

struct Band {
  double lo;
  double hi;
  std::string text;
};

std::string Fixed(double value, int decimals) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
double HalfUnit(int decimals) { return 0.5 * std::pow(10.0, -decimals); }
Band Printed(double value, int decimals) {
  return {value - HalfUnit(decimals), value + HalfUnit(decimals), Fixed(value, decimals)};
}
Band Range(double lo, double hi, int decimals) {
  return {lo - HalfUnit(decimals), hi + HalfUnit(decimals),
          Fixed(lo, decimals) + "-" + Fixed(hi, decimals)};
}
Band Above(double limit) { return {limit, kInf, "> " + Fixed(limit, 0)}; }
Band Below(double limit) { return {-kInf, limit, "< " + Fixed(limit, 0)}; }

enum class Status { kHolds, kDeviates };

struct Claim {
  std::string figure;
  std::string batch;  // bench/paper/<batch>.req
  Metric metric;
  std::string run;
  std::string baseline;  // kGainPct only
  Band paper;
  Status status;
  std::string pinned;  // kDeviates: the measured value, 0 decimals for migrations, else 1
};

// Seeded from the paper's Sections 6.1-6.4: Table 3 and Figures 6, 7, 8 and 10.
const std::vector<Claim>& Claims() {
  using M = Metric;
  constexpr Status kHolds = Status::kHolds;
  constexpr Status kDeviates = Status::kDeviates;
  static const std::vector<Claim> claims = {
      {"Table 3 avg throttle, off", "table3", M::kAvgThrottlePct, "mixed/base", "", Printed(15.2, 1), kDeviates, "12.4"},
      {"Table 3 avg throttle, on", "table3", M::kAvgThrottlePct, "mixed/eas", "", Printed(10.2, 1), kDeviates, "7.8"},
      {"Table 3 hot CPUs, off", "table3", M::kMaxCpuThrottlePct, "mixed/base", "", Range(51, 61, 0), kDeviates, "43.1"},
      {"Table 3 hot CPUs, on", "table3", M::kMaxCpuThrottlePct, "mixed/eas", "", Range(35, 52, 0), kDeviates, "27.8"},
      {"Table 3 gain, mixed", "table3", M::kGainPct, "mixed/eas", "mixed/base", Printed(4.7, 1), kDeviates, "5.3"},
      {"Table 3 gain, short tasks", "table3", M::kGainPct, "short/eas", "short/base", Printed(4.9, 1), kDeviates, "5.7"},
      {"Fig 6/7 migrations, SMT off, off", "fig6_fig7", M::kMigrations, "no-smt/base", "", Printed(3.3, 1), kDeviates, "0"},
      {"Fig 6/7 migrations, SMT off, on", "fig6_fig7", M::kMigrations, "no-smt/eas", "", Printed(32, 0), kDeviates, "120"},
      {"Fig 6/7 migrations, SMT on, off", "fig6_fig7", M::kMigrations, "smt/base", "", Printed(9.8, 1), kDeviates, "0"},
      {"Fig 6/7 migrations, SMT on, on", "fig6_fig7", M::kMigrations, "smt/eas", "", Printed(87, 0), kDeviates, "161"},
      {"Fig 6 peak W, balancing off", "fig6_fig7", M::kPeakThermalW, "no-smt/base", "", Above(50), kHolds, ""},
      {"Fig 7 peak W, balancing on", "fig6_fig7", M::kPeakThermalW, "no-smt/eas", "", Below(50), kDeviates, "51.6"},
      {"Fig 8 gain at 8/2/8", "fig8", M::kGainPct, "8/2/8/eas", "8/2/8/base", Printed(12.3, 1), kDeviates, "7.4"},
      {"Fig 8 gain at 0/18/0", "fig8", M::kGainPct, "0/18/0/eas", "0/18/0/base", Printed(0, 0), kHolds, ""},
      {"Fig 10 gain, 1 task, 40 W", "fig10", M::kGainPct, "hot1/40W/eas", "hot1/40W/base", Printed(76, 0), kDeviates, "60.2"},
      {"Fig 10 gain, 2 tasks, 40 W", "fig10", M::kGainPct, "hot2/40W/eas", "hot2/40W/base", Printed(76, 0), kDeviates, "57.7"},
      {"Fig 10 gain, 8 tasks, 40 W", "fig10", M::kGainPct, "hot8/40W/eas", "hot8/40W/base", Printed(0, 0), kHolds, ""},
      {"Fig 10 gain, 1 task, 50 W", "fig10", M::kGainPct, "hot1/50W/eas", "hot1/50W/base", Printed(27, 0), kDeviates, "16.6"},
  };
  return claims;
}

// The metric's value for one run; a gain compares mean throughputs.
double RunValue(Metric metric, const RunResult& r) {
  switch (metric) {
    case Metric::kMigrations:
      return static_cast<double>(r.migrations);
    case Metric::kAvgThrottlePct:
      return r.AverageThrottledFraction() * 100;
    case Metric::kMaxCpuThrottlePct:
      return *std::max_element(r.throttled_fraction.begin(), r.throttled_fraction.end()) * 100;
    case Metric::kPeakThermalW:
      return r.thermal_power.MaxValue();
    case Metric::kGainPct:
      return r.Throughput();
  }
  return std::nan("");
}

// The mean over the records named `run`; NaN when none is.
double MeanOver(const std::vector<RunRecord>& records, const std::string& run, Metric metric) {
  double sum = 0.0;
  int count = 0;
  for (const RunRecord& record : records) {
    if (record.request.name == run) {
      sum += RunValue(metric, record.result);
      ++count;
    }
  }
  return count > 0 ? sum / count : std::nan("");
}

double Measure(const Claim& claim, const std::vector<RunRecord>& records) {
  const double value = MeanOver(records, claim.run, claim.metric);
  if (claim.metric != Metric::kGainPct) {
    return value;
  }
  const double base = MeanOver(records, claim.baseline, claim.metric);
  return (value - base) / base * 100;
}

std::vector<RunRecord> RunBatch(const std::string& batch) {
  std::ifstream file(std::string(EAS_SOURCE_DIR) + "/bench/paper/" + batch + ".req");
  std::ostringstream text;
  text << file.rdbuf();
  const auto requests = ParseRunRequestBatch(text.str());
  if (!requests.ok()) {
    ADD_FAILURE() << batch << ".req: " << requests.error().Render();
    return {};
  }
  std::vector<ResolvedRequest> resolved;
  for (const RunRequest& request : *requests) {
    auto r = ResolveRunRequest(request);
    if (!r.ok()) {
      ADD_FAILURE() << batch << ".req: " << r.error().Render();
      return {};
    }
    resolved.push_back(std::move(*r));
  }
  return RunSession().Run(resolved);
}

void CheckClaims(const std::string& batch) {
  const std::vector<RunRecord> records = RunBatch(batch);
  ASSERT_FALSE(records.empty());
  std::printf("%-34s | %10s | %9s | %s\n", "claim", "paper", "measured", "status");
  int rows = 0;
  for (const Claim& claim : Claims()) {
    if (claim.batch != batch) {
      continue;
    }
    ++rows;
    const double value = Measure(claim, records);
    const std::string measured = Fixed(value, claim.metric == Metric::kMigrations ? 0 : 1);
    const bool in_band = value >= claim.paper.lo && value <= claim.paper.hi;
    const bool holds = claim.status == Status::kHolds;
    std::printf("%-34s | %10s | %9s | %s\n", claim.figure.c_str(), claim.paper.text.c_str(),
                measured.c_str(), holds ? "holds" : "deviates");
    ASSERT_FALSE(std::isnan(value)) << claim.figure << ": no run named " << claim.run << " / "
                                    << claim.baseline << " in " << batch << ".req";
    if (holds) {
      EXPECT_TRUE(in_band) << claim.figure << ": measured " << measured
                           << " no longer holds the paper's " << claim.paper.text;
    } else if (in_band) {
      ADD_FAILURE() << claim.figure << ": measured " << measured << " now lies in the paper's "
                    << claim.paper.text << "; flip its status to holds";
    } else {
      EXPECT_EQ(measured, claim.pinned) << claim.figure << ": the pinned deviation moved";
    }
  }
  EXPECT_GT(rows, 0) << "no claims read " << batch << ".req";
}

TEST(PaperClaimsTest, Table3) { CheckClaims("table3"); }
TEST(PaperClaimsTest, Fig6Fig7) { CheckClaims("fig6_fig7"); }
TEST(PaperClaimsTest, Fig8) { CheckClaims("fig8"); }
TEST(PaperClaimsTest, Fig10) { CheckClaims("fig10"); }

}  // namespace
}  // namespace eas
