// Minimal command-line flag parsing for the tools.
//
// Supports --name=value and --name value forms plus boolean switches
// (--name). No external dependencies; the tools' needs are modest.

#ifndef SRC_BASE_FLAGS_H_
#define SRC_BASE_FLAGS_H_

#include <limits>
#include <map>
#include <string>
#include <vector>

namespace eas {

class FlagParser {
 public:
  // Parses argv; unknown arguments that do not start with "--" are collected
  // as positional arguments.
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  // Value of --name; `fallback` if absent. A bare switch yields "".
  std::string GetString(const std::string& name, const std::string& fallback = "") const;
  // Numeric values of --name; `fallback` if absent or a bare switch. A value
  // that is not wholly a number ("4x", "abc", " 4", "inf"), or an integer
  // outside [min, max], exits the tool with status 1 and a diagnostic naming
  // the flag, so a typo never runs as 0, as a prefix of what was meant, or
  // as a silently clamped count.
  double GetDouble(const std::string& name, double fallback) const;
  long long GetInt(const std::string& name, long long fallback,
                   long long min = std::numeric_limits<long long>::min(),
                   long long max = std::numeric_limits<long long>::max()) const;
  bool GetBool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Flags that were passed but are not in `known`, sorted. Tools validate
  // their flag set with this so a typo ("--polcy") is rejected with the
  // offending flag named instead of being silently ignored.
  std::vector<std::string> UnknownFlags(const std::vector<std::string>& known) const;

  // Splits "a:b:c" into its fields.
  static std::vector<std::string> SplitColons(const std::string& value);

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace eas

#endif  // SRC_BASE_FLAGS_H_
