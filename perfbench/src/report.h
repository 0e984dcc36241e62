// Result bookkeeping for one benchmark run: operation counts, metrics with
// the sample count behind each, free-form detail fields, and the JSON the
// run prints last.

#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Shortest round-trip rendering of a double as a JSON number.
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

double Median(std::vector<double> values);

// Nearest-rank percentile, q in [0, 100].
double Percentile(std::vector<double> values, double q);

// The highest of the usual tail percentiles that still has at least ten
// samples above it; the median when there are too few samples for any.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;  // samples above the percentile's rank
};
Tail TailOf(const std::vector<double>& values);

// FNV-1a 64, hex: a digest of record bytes, not a security hash.
std::string Digest(const std::string& bytes);

class Report {
 public:
  // One operation (a run, a submission, an output check); a failure is
  // counted, described, and the run goes on.
  void Operation(bool ok, const std::string& what);
  void Operations(std::int64_t attempted, std::int64_t failed);

  void Metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);

  // Adds `"key": <json value>` to the detail object.
  void Detail(const std::string& key, const std::string& json_value);

  bool correct() const { return failed_ == 0; }
  std::int64_t attempted() const { return attempted_; }
  // 1 - failed / attempted: error_rate as a metric that is never 0.
  double SuccessRate() const {
    return attempted_ > 0 ? 1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_)
                          : 0.0;
  }

  // Prints the human-readable metric lines, the detail line and, last, the
  // result object.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
