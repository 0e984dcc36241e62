#include "perfbench/src/report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", static_cast<unsigned char>(c));
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

Tail TailOf(const std::vector<double>& values) {
  Tail tail;
  tail.value = Percentile(values, 50.0);
  for (double q : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
    const std::size_t beyond = values.size() - static_cast<std::size_t>(rank);
    if (beyond < 10) {
      break;
    }
    tail = Tail{q, Percentile(values, q), beyond};
  }
  return tail;
}

std::string Digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

void Report::Operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

void Report::Operations(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  metrics_.push_back(Entry{name, value, unit, samples});
}

void Report::Detail(const std::string& key, const std::string& json_value) {
  details_.emplace_back(key, json_value);
}

void Report::Print() const {
  for (const Entry& m : metrics_) {
    std::printf("%-32s %16s %-8s (n=%zu)\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str(), m.samples);
  }
  const double error_rate =
      attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 0.0;
  std::printf("%-32s %16s %-8s (attempted=%lld)\n", "error_rate", JsonNumber(error_rate).c_str(),
              "frac", static_cast<long long>(attempted_));

  std::string detail = "{\"error_rate\": " + JsonNumber(error_rate) + ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    detail += (i > 0 ? ", " : "") + JsonString(failures_[i]);
  }
  detail += "], \"samples\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    detail += (i > 0 ? ", " : "") + JsonString(metrics_[i].name) + ": " +
              std::to_string(metrics_[i].samples);
  }
  detail += "}";
  for (const auto& [key, value] : details_) {
    detail += ", " + JsonString(key) + ": " + value;
  }
  detail += "}";
  std::printf("{\"detail\": %s}\n", detail.c_str());

  std::string result = "{\"correct\": " + std::string(correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    result += (i > 0 ? ", " : "") + JsonString(metrics_[i].name) +
              ": {\"value\": " + JsonNumber(metrics_[i].value) +
              ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
