#include "src/api/run_request.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/core/policy_registry.h"
#include "src/fault/fault_plan.h"
#include "src/freq/governor_registry.h"
#include "src/sim/scenario.h"
#include "src/sim/scenario_cache.h"
#include "src/workloads/generators.h"
#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace eas {
namespace {

// The request-file keys, in canonical (format) order. Kept aligned with the
// eastool flag names so a request file reads like the command line it
// replaces.
constexpr const char* kKeys[] = {"name",       "tag",        "scenario", "topology",
                                 "workload",   "policy",     "governor", "duration-s",
                                 "max-power",  "temp-limit", "throttle", "faults",
                                 "skip-ahead", "seed",       "runs"};

std::string KnownKeys() {
  std::string known;
  for (const char* key : kKeys) {
    known += known.empty() ? key : std::string(", ") + key;
  }
  return known;
}

std::string Trim(const std::string& text) {
  std::size_t begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const std::size_t end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

bool ParseDoubleValue(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  // strtod happily produces nan/inf (and overflows to inf); none of the
  // numeric request fields can mean anything non-finite.
  return !text.empty() && end != nullptr && *end == '\0' && std::isfinite(*out);
}

bool ParseUintValue(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    return false;
  }
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseBoolValue(const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text == "on" || text == "yes") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "off" || text == "no") {
    *out = false;
    return true;
  }
  return false;
}

// Shortest decimal that round-trips: "60", "0.5", "1e+30".
std::string FormatDouble(double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, ptr);
}

RequestError MakeError(RequestErrorCode code, std::string key, std::string message) {
  RequestError error;
  error.code = code;
  error.key = std::move(key);
  error.message = std::move(message);
  return error;
}

// Applies one parsed `key = value` pair onto `request`; the error (with no
// line attribution - ParseRunRequest adds it) on an unknown key or a
// malformed value.
std::optional<RequestError> ApplyPair(const std::string& key, const std::string& value,
                                      RunRequest* request) {
  if (key == "name") {
    request->name = value;
    return std::nullopt;
  }
  if (key == "tag") {
    request->tag = value;
    return std::nullopt;
  }
  if (key == "scenario") {
    request->scenario = value;
    return std::nullopt;
  }
  if (key == "topology") {
    request->topology = value;
    return std::nullopt;
  }
  if (key == "workload") {
    request->workload = value;
    return std::nullopt;
  }
  if (key == "policy") {
    request->policy = value;
    return std::nullopt;
  }
  if (key == "governor") {
    request->governor = value;
    return std::nullopt;
  }
  if (key == "faults") {
    request->faults = value;
    return std::nullopt;
  }
  if (key == "duration-s" || key == "max-power" || key == "temp-limit") {
    double parsed = 0.0;
    if (!ParseDoubleValue(value, &parsed)) {
      return MakeError(RequestErrorCode::kBadValue, key,
                       "bad value for " + key + ": \"" + value + "\" (want a number)");
    }
    if (key == "duration-s") {
      request->duration_s = parsed;
    } else if (key == "max-power") {
      request->max_power = parsed;
    } else {
      request->temp_limit = parsed;
    }
    return std::nullopt;
  }
  if (key == "throttle" || key == "skip-ahead") {
    bool parsed = false;
    if (!ParseBoolValue(value, &parsed)) {
      return MakeError(RequestErrorCode::kBadValue, key,
                       "bad value for " + key + ": \"" + value + "\" (want true/false)");
    }
    if (key == "throttle") {
      request->throttle = parsed;
    } else {
      request->skip_ahead = parsed;
    }
    return std::nullopt;
  }
  if (key == "seed" || key == "runs") {
    std::uint64_t parsed = 0;
    if (!ParseUintValue(value, &parsed)) {
      return MakeError(
          RequestErrorCode::kBadValue, key,
          "bad value for " + key + ": \"" + value + "\" (want a non-negative integer)");
    }
    if (key == "seed") {
      request->seed = parsed;
    } else {
      request->runs = parsed;
    }
    return std::nullopt;
  }
  return MakeError(RequestErrorCode::kUnknownKey, key,
                   "unknown key \"" + key + "\" (known: " + KnownKeys() + ")");
}

void Append(std::string* out, const char* key, const std::string& value,
            const char* separator) {
  if (!out->empty()) {
    *out += separator;
  }
  *out += key;
  *out += " = ";
  *out += value;
}

std::string FormatWithSeparator(const RunRequest& request, const char* separator) {
  std::string out;
  if (!request.name.empty()) {
    Append(&out, "name", request.name, separator);
  }
  if (!request.tag.empty()) {
    Append(&out, "tag", request.tag, separator);
  }
  if (!request.scenario.empty()) {
    Append(&out, "scenario", request.scenario, separator);
  }
  if (request.topology.has_value()) {
    Append(&out, "topology", *request.topology, separator);
  }
  if (request.workload.has_value()) {
    Append(&out, "workload", *request.workload, separator);
  }
  if (request.policy.has_value()) {
    Append(&out, "policy", *request.policy, separator);
  }
  if (request.governor.has_value()) {
    Append(&out, "governor", *request.governor, separator);
  }
  if (request.duration_s.has_value()) {
    Append(&out, "duration-s", FormatDouble(*request.duration_s), separator);
  }
  if (request.max_power.has_value()) {
    Append(&out, "max-power", FormatDouble(*request.max_power), separator);
  }
  if (request.temp_limit.has_value()) {
    Append(&out, "temp-limit", FormatDouble(*request.temp_limit), separator);
  }
  if (request.throttle.has_value()) {
    Append(&out, "throttle", *request.throttle ? "true" : "false", separator);
  }
  if (request.faults.has_value()) {
    Append(&out, "faults", *request.faults, separator);
  }
  if (request.skip_ahead.has_value()) {
    Append(&out, "skip-ahead", *request.skip_ahead ? "true" : "false", separator);
  }
  if (request.seed.has_value()) {
    Append(&out, "seed", std::to_string(*request.seed), separator);
  }
  if (request.runs != 1) {
    Append(&out, "runs", std::to_string(request.runs), separator);
  }
  return out;
}

// True when `value` survives the text round trip unchanged: no comment or
// separator characters, no edge whitespace the parser would trim away.
bool TextSafe(const std::string& value) {
  return value == Trim(value) && value.find_first_of("#;\n\r") == std::string::npos;
}

}  // namespace

std::optional<RequestError> ApplyRunRequestField(const std::string& key,
                                                 const std::string& value,
                                                 RunRequest* request) {
  if (value.empty()) {
    return MakeError(RequestErrorCode::kEmptyValue, key, "empty value for \"" + key + "\"");
  }
  return ApplyPair(key, value, request);
}

Expected<RunRequest> ParseRunRequest(const std::string& text) {
  RunRequest request;
  std::vector<std::string> seen;
  std::size_t line_number = 0;
  std::size_t line_start = 0;
  // Attaches the current line to an error built below; Render() turns it
  // back into the historical "line N: ..." diagnostic.
  const auto at_line = [&line_number](RequestError error) {
    error.line = line_number;
    return error;
  };
  while (line_start <= text.size()) {
    const std::size_t newline = text.find('\n', line_start);
    std::string line = text.substr(
        line_start, newline == std::string::npos ? std::string::npos : newline - line_start);
    ++line_number;
    // Strip comments, then split the remainder into ';'-separated pairs so
    // a whole request fits on one (batch-file) line.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::size_t pair_start = 0;
    while (pair_start <= line.size()) {
      const std::size_t semi = line.find(';', pair_start);
      const std::string pair = Trim(line.substr(
          pair_start, semi == std::string::npos ? std::string::npos : semi - pair_start));
      if (!pair.empty()) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos) {
          return at_line(MakeError(RequestErrorCode::kSyntax, "",
                                   "expected key = value, got \"" + pair + "\""));
        }
        const std::string key = Trim(pair.substr(0, eq));
        const std::string value = Trim(pair.substr(eq + 1));
        if (key.empty()) {
          return at_line(MakeError(RequestErrorCode::kSyntax, "", "missing key before '='"));
        }
        if (value.empty()) {
          return at_line(MakeError(RequestErrorCode::kEmptyValue, key,
                                   "empty value for \"" + key + "\""));
        }
        for (const std::string& earlier : seen) {
          if (earlier == key) {
            return at_line(MakeError(RequestErrorCode::kDuplicateKey, key,
                                     "duplicate key \"" + key + "\""));
          }
        }
        seen.push_back(key);
        if (auto error = ApplyPair(key, value, &request)) {
          return at_line(std::move(*error));
        }
      }
      if (semi == std::string::npos) {
        break;
      }
      pair_start = semi + 1;
    }
    if (newline == std::string::npos) {
      break;
    }
    line_start = newline + 1;
  }
  return request;
}

std::string FormatRunRequest(const RunRequest& request) {
  std::string out = FormatWithSeparator(request, "\n");
  if (!out.empty()) {
    out += '\n';
  }
  return out;
}

std::string FormatRunRequestLine(const RunRequest& request) {
  return FormatWithSeparator(request, "; ");
}

std::string NormalizePolicyName(std::string name) {
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  if (name == "baseline") {
    return "load_only";
  }
  if (name == "eas") {
    return "energy_aware";
  }
  if (name == "temp_only") {  // the CLI's historical spelling was temp-only
    return "temperature_only";
  }
  return name;
}

Expected<ResolvedRequest> ResolveRunRequest(const RunRequest& request, ScenarioCache* cache) {
  ResolvedRequest resolved;
  resolved.request = request;
  const bool from_scenario = !request.scenario.empty();

  // Every resolved request must survive FormatRunRequest -> ParseRunRequest
  // unchanged - that round trip is what makes a JsonlSink record or a
  // --print-request file an exact reproduction recipe. A value the text
  // format cannot carry (comment/separator characters, edge whitespace)
  // would silently replay as a *different* run, so it is rejected here,
  // where programmatically built requests also pass through.
  const auto text_unsafe = [](const char* key) {
    return MakeError(RequestErrorCode::kBadValue, key,
                     std::string("bad ") + key +
                         ": the request text format cannot carry '#', ';', newlines or "
                         "edge whitespace");
  };
  if (!TextSafe(request.name)) {
    return text_unsafe("name");
  }
  if (!TextSafe(request.tag)) {
    return text_unsafe("tag");
  }
  if (!TextSafe(request.scenario)) {
    return text_unsafe("scenario");
  }
  if (request.topology.has_value() && !TextSafe(*request.topology)) {
    return text_unsafe("topology");
  }
  if (request.workload.has_value() && !TextSafe(*request.workload)) {
    return text_unsafe("workload");
  }
  if (request.policy.has_value() && !TextSafe(*request.policy)) {
    return text_unsafe("policy");
  }
  if (request.governor.has_value() && !TextSafe(*request.governor)) {
    return text_unsafe("governor");
  }
  if (request.faults.has_value() && !TextSafe(*request.faults)) {
    return text_unsafe("faults");
  }

  ExperimentSpec spec;
  if (from_scenario) {
    if (!ScenarioRegistry::Global().Contains(request.scenario)) {
      std::string known;
      for (const std::string& name : ScenarioRegistry::Global().Names()) {
        known += known.empty() ? name : ", " + name;
      }
      return MakeError(RequestErrorCode::kUnknownName, "scenario",
                       "unknown scenario \"" + request.scenario + "\" (known: " + known + ")");
    }
    // The cached build and a fresh factory call are the same deterministic
    // data; the cache only amortizes workload generation across requests.
    spec = cache != nullptr ? cache->Scenario(request.scenario)->ToExperimentSpec()
                            : ScenarioRegistry::Global().BuildOrThrow(request.scenario)
                                  .ToExperimentSpec();
    if (request.workload.has_value()) {
      return MakeError(RequestErrorCode::kBadValue, "workload",
                       "workload cannot override a scenario workload (scenario \"" +
                           request.scenario + "\" defines its own)");
    }
  } else {
    spec.name = "cli";
  }
  if (!request.name.empty()) {
    spec.name = request.name;
  }

  // --- machine -------------------------------------------------------------
  if (!from_scenario || request.topology.has_value()) {
    std::string topo_error;
    const auto topology = ParseTopologySpec(request.topology.value_or("2:4:1"), &topo_error);
    if (!topology.has_value()) {
      return MakeError(RequestErrorCode::kBadValue, "topology", "bad topology: " + topo_error);
    }
    spec.config.topology = *topology;
    // The paper's 8-package box gets its measured per-package cooling; any
    // other shape cools uniformly (same rule eastool always applied).
    if (spec.config.topology.num_physical() == 8) {
      spec.config.cooling = CoolingProfile::PaperXSeries445();
    } else {
      spec.config.cooling =
          CoolingProfile::Uniform(spec.config.topology.num_physical(), ThermalParams{});
    }
  }
  if (request.max_power.has_value()) {
    // Programmatically built requests bypass the parser, so the finiteness
    // guard repeats here (and for temp-limit / duration-s below).
    if (!(*request.max_power > 0.0) || !std::isfinite(*request.max_power)) {
      return MakeError(RequestErrorCode::kBadValue, "max-power",
                       "bad max-power: want a finite value > 0 W");
    }
    spec.config.explicit_max_power_physical = *request.max_power;
  }
  if (!from_scenario || request.temp_limit.has_value()) {
    const double temp_limit = request.temp_limit.value_or(38.0);
    if (!std::isfinite(temp_limit)) {
      return MakeError(RequestErrorCode::kBadValue, "temp-limit",
                       "bad temp-limit: want a finite temperature");
    }
    spec.config.temp_limit = temp_limit;
  }
  if (!from_scenario || request.throttle.has_value()) {
    spec.config.throttling_enabled = request.throttle.value_or(false);
  }
  // No scenario sets skip_ahead; an explicit request value always wins and
  // an unset one keeps the config default (on).
  if (request.skip_ahead.has_value()) {
    spec.config.skip_ahead = *request.skip_ahead;
  }
  if (!from_scenario || request.seed.has_value()) {
    spec.config.seed = request.seed.value_or(42);
  }
  // Faults resolve after the topology is final so the plan validates against
  // the machine it will actually run on. The literal "none" cancels a
  // scenario's baked-in plan (an empty value can't travel through the text
  // format); unset inherits it.
  if (!from_scenario || request.faults.has_value()) {
    const std::string faults = request.faults.value_or("none");
    spec.config.fault_spec = faults == "none" ? "" : faults;
  }
  if (spec.config.faulted()) {
    std::string fault_error;
    if (!ParseFaultPlan(spec.config.fault_spec, spec.config.topology, &fault_error).has_value()) {
      return MakeError(RequestErrorCode::kBadValue, "faults", "bad faults: " + fault_error);
    }
  }

  // --- policy (resolved purely via the BalancePolicyRegistry) --------------
  if (!from_scenario || request.policy.has_value()) {
    const std::string policy = NormalizePolicyName(request.policy.value_or("energy_aware"));
    if (!BalancePolicyRegistry::Global().Contains(policy)) {
      std::string known;
      for (const std::string& name : BalancePolicyRegistry::Global().Names()) {
        known += known.empty() ? name : ", " + name;
      }
      return MakeError(RequestErrorCode::kUnknownName, "policy",
                       "unknown policy \"" + policy + "\" (known: " + known + ")");
    }
    spec.config.sched = SchedConfigForPolicy(policy);
    resolved.policy = policy;
  } else {
    resolved.policy = EffectiveBalancerName(spec.config.sched);
  }

  // --- frequency governor ---------------------------------------------------
  if (!from_scenario || request.governor.has_value()) {
    const std::string governor = request.governor.value_or("none");
    if (!FrequencyGovernorRegistry::Global().Contains(governor)) {
      std::string known;
      for (const std::string& name : FrequencyGovernorRegistry::Global().Names()) {
        known += known.empty() ? name : ", " + name;
      }
      return MakeError(RequestErrorCode::kUnknownName, "governor",
                       "unknown governor \"" + governor + "\" (known: " + known + ")");
    }
    spec.config.frequency_governor = governor;
  }
  resolved.governor = spec.config.frequency_governor;

  // --- workload -------------------------------------------------------------
  if (!from_scenario) {
    // Non-scenario requests all draw from the default-model library; the
    // cache shares one immutable build across them.
    std::shared_ptr<const ProgramLibrary> library =
        cache != nullptr ? cache->DefaultLibrary(spec.config.model)
                         : std::make_shared<const ProgramLibrary>(spec.config.model);
    const std::string workload_spec = request.workload.value_or("mixed:3");
    Workload workload;
    if (workload_spec.rfind("trace:", 0) == 0) {
      std::string trace_error;
      if (!LoadTraceWorkload(workload_spec.substr(6), *library, &workload, &trace_error)) {
        return MakeError(RequestErrorCode::kBadValue, "workload",
                         "bad workload trace: " + trace_error);
      }
    } else {
      workload = Workload(ParseWorkloadSpec(workload_spec, *library));
    }
    if (workload.empty()) {
      return MakeError(RequestErrorCode::kBadValue, "workload",
                       "bad workload \"" + workload_spec + "\"");
    }
    workload.Retain(library);
    spec.workload = std::move(workload);
  }

  // --- duration / sweep ------------------------------------------------------
  if (!from_scenario || request.duration_s.has_value()) {
    const double duration_s = request.duration_s.value_or(120.0);
    // !(x > 0) also rejects NaN; the upper bound keeps the tick cast far
    // from Tick overflow (9e12 s ~ 285 millennia of simulated time).
    if (!(duration_s > 0.0) || duration_s > 9.0e12) {
      return MakeError(RequestErrorCode::kBadValue, "duration-s",
                       "bad duration-s: want > 0 (and sane) simulated seconds");
    }
    // Round, don't truncate: a tick count that round-tripped through
    // seconds (e.g. a bench's duration/1000.0) must resolve to exactly that
    // tick count, not one short.
    spec.options.duration_ticks = static_cast<Tick>(std::llround(duration_s * 1000.0));
  }
  if (!from_scenario) {
    spec.options.sample_interval_ticks = 500;
  }

  if (request.runs < 1) {
    return MakeError(RequestErrorCode::kBadValue, "runs", "bad runs: want >= 1");
  }
  resolved.specs = request.runs == 1
                       ? std::vector<ExperimentSpec>{std::move(spec)}
                       : ExperimentRunner::SeedSweep(spec, static_cast<std::size_t>(request.runs));
  return resolved;
}

RunRequest RunRequestForScenario(const std::string& scenario) {
  RunRequest request;
  request.scenario = scenario;
  return request;
}

std::vector<RunRequest> CannedScenarioRequests() {
  std::vector<RunRequest> requests;
  for (const std::string& name : ScenarioRegistry::Global().Names()) {
    requests.push_back(RunRequestForScenario(name));
  }
  return requests;
}

}  // namespace eas
