// The harness every JSON-writing benchmark shares: flag parsing with
// unknown-flag rejection, the build type, a stopwatch, and the report
// writer. Header-only because CMake builds each bench/*.cc into its own
// executable.
//
// A report is one JSON document in one schema, which tools/bench_compare.py
// gates generically:
//
//   {"bench": "<name>",
//    "config": {...},           the run configuration; a run compares against
//                               a baseline only when every field is equal
//    "<field>": ...,            informational (threads, wall_seconds, ...)
//    "rows": [{"name": "<row>", "<field>": ...,
//              "record": {...},  sink-driven rows: the replayable run record
//              "gates": {"<metric>": {"value": v, "kind": "<kind>",
//                                     "min": lo, "max": hi}},  (a bound's sides)
//              "checks": {"<check>": true}}]}
//
// Gate kinds, both of which mean the same on any runner:
//   sim    a deterministic simulated value; may fall at most 1% below the
//          baseline
//   bound  a ratio measured within this run; must lie in [min, max), which
//          the gate carries, whatever the baseline recorded
//
// Absolute wall-clock rates (ticks/s, requests/s) are informational fields:
// they move with the runner, so their gated home is perfbench
// (BENCHMARK.json), which measures them as parent/change pairs on one box.
//
// Checks are correctness verdicts (bit identity, determinism, ...). Any
// false check makes Report::Write return 1, so every build that runs a
// bench catches it, not only the gated CI leg. Timing-derived invariants
// are bound gates, never checks: a smoke-length run must not flake on them.

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/api/result_sink.h"
#include "src/base/flags.h"

namespace eas::bench {

#ifdef NDEBUG
inline constexpr const char kBuildType[] = "release";
#else
inline constexpr const char kBuildType[] = "debug";
#endif

// Parses argv; exits 1 naming the first flag not in `known`, so a typo never
// silently runs the default configuration.
inline FlagParser ParseFlags(int argc, char** argv, const std::vector<std::string>& known) {
  FlagParser flags(argc, argv);
  const std::vector<std::string> unknown = flags.UnknownFlags(known);
  if (!unknown.empty()) {
    std::string list;
    for (const std::string& name : known) {
      list += " --" + name;
    }
    std::fprintf(stderr, "unknown flag --%s (known:%s)\n", unknown.front().c_str(),
                 list.c_str());
    std::exit(1);
  }
  return flags;
}

class Stopwatch {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

// `numerator / denominator` for rates and speedups; 0 when the denominator
// is not positive (a clock that did not advance).
inline double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// The median of a non-empty `values` (the upper one of an even count).
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// A JSON object under construction; fields render in insertion order.
class JsonObject {
 public:
  template <typename T>
  JsonObject& Add(const std::string& key, const T& value) {
    Key(key);
    if constexpr (std::is_same_v<T, bool>) {
      body_ += value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      body_ += std::to_string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      char buffer[32] = "null";  // JSON has no inf/nan
      if (std::isfinite(value)) {
        std::snprintf(buffer, sizeof(buffer), "%.10g", static_cast<double>(value));
      }
      body_ += buffer;
    } else {
      body_ += '"';
      body_ += JsonEscape(std::string(value));
      body_ += '"';
    }
    return *this;
  }

  // Embeds an already-rendered JSON value verbatim.
  JsonObject& AddRaw(const std::string& key, const std::string& json) {
    Key(key);
    body_ += json;
    return *this;
  }

  bool empty() const { return body_.empty(); }
  // The fields without the enclosing braces.
  const std::string& fields() const { return body_; }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += '"';
    body_ += JsonEscape(key);
    body_ += "\": ";
  }

  std::string body_;
};

class Row {
 public:
  explicit Row(const std::string& name) : name_(name) { fields_.Add("name", name); }

  template <typename T>
  Row& Info(const std::string& key, const T& value) {
    fields_.Add(key, value);
    return *this;
  }
  // The replayable record (JsonlRecordLine) of a sink-driven row.
  Row& Record(const std::string& json_object) {
    fields_.AddRaw("record", json_object);
    return *this;
  }

  Row& Sim(const std::string& metric, double value) { return Gate(metric, value, "sim"); }
  Row& AtLeast(const std::string& metric, double value, double min) {
    return Gate(metric, value, "bound", min);
  }
  Row& Between(const std::string& metric, double value, double min, double max) {
    return Gate(metric, value, "bound", min, max);
  }

  Row& Check(const std::string& check, bool holds) {
    checks_.Add(check, holds);
    if (!holds) {
      failed_.push_back(check);
    }
    return *this;
  }

  const std::string& name() const { return name_; }
  const std::vector<std::string>& failed_checks() const { return failed_; }

  std::string str() const {
    JsonObject row = fields_;
    if (!gates_.empty()) {
      row.AddRaw("gates", gates_.str());
    }
    if (!checks_.empty()) {
      row.AddRaw("checks", checks_.str());
    }
    return row.str();
  }

 private:
  // `min` and `max` are a bound's sides; a sim gate has neither.
  Row& Gate(const std::string& metric, double value, const char* kind,
            std::optional<double> min = std::nullopt, std::optional<double> max = std::nullopt) {
    JsonObject gate;
    gate.Add("value", value).Add("kind", kind);
    if (min.has_value()) {
      gate.Add("min", *min);
    }
    if (max.has_value()) {
      gate.Add("max", *max);
    }
    gates_.AddRaw(metric, gate.str());
    return *this;
  }

  std::string name_;
  JsonObject fields_;
  JsonObject gates_;
  JsonObject checks_;
  std::vector<std::string> failed_;
};

class Report {
 public:
  explicit Report(const std::string& bench) : bench_(bench) {}

  template <typename T>
  Report& Config(const std::string& key, const T& value) {
    config_.Add(key, value);
    return *this;
  }
  template <typename T>
  Report& Info(const std::string& key, const T& value) {
    info_.Add(key, value);
    return *this;
  }
  Report& Add(const Row& row) {
    rows_.push_back(row);
    return *this;
  }

  // Writes the document to `path` and returns the bench's exit code: 0 when
  // it was written and every check holds, 1 otherwise, with each failed
  // check named on stderr.
  int Write(const std::string& path) const {
    std::string text = "{" + JsonObject().Add("bench", bench_).fields();
    text += ",\n \"config\": ";
    text += config_.str();
    if (!info_.empty()) {
      text += ",\n ";
      text += info_.fields();
    }
    text += ",\n \"rows\": [";
    int status = 0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      text += i == 0 ? "\n  " : ",\n  ";
      text += rows_[i].str();
      for (const std::string& check : rows_[i].failed_checks()) {
        std::fprintf(stderr, "FAILED check %s[%s]\n", check.c_str(), rows_[i].name().c_str());
        status = 1;
      }
    }
    text += "\n ]}\n";

    std::ofstream out(path, std::ios::binary);
    out << text;
    out.close();
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return status;
  }

 private:
  std::string bench_;
  JsonObject config_;
  JsonObject info_;
  std::vector<Row> rows_;
};

}  // namespace eas::bench

#endif  // BENCH_HARNESS_H_
