// RunRequest: the parse/format round trip (including rejection diagnostics
// for bad keys and values) and the resolve semantics that make a request
// file reproduce the equivalent flag-driven run exactly. Errors come back
// as structured RequestErrors; Render() must stay byte-identical to the
// historical bool-plus-string diagnostics.

#include "src/api/run_request.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/sim/scenario.h"
#include "src/sim/scenario_cache.h"

namespace eas {
namespace {

RunRequest ParseOk(const std::string& text) {
  const auto request = ParseRunRequest(text);
  EXPECT_TRUE(request.ok()) << (request.ok() ? "" : request.error().Render());
  return request.ok() ? *request : RunRequest{};
}

RequestError ParseErr(const std::string& text) {
  const auto request = ParseRunRequest(text);
  EXPECT_FALSE(request.ok()) << "parsed: " << FormatRunRequest(*request);
  return request.ok() ? RequestError{} : request.error();
}

std::string ParseError(const std::string& text) { return ParseErr(text).Render(); }

RequestError ResolveErr(const RunRequest& request) {
  const auto resolved = ResolveRunRequest(request);
  EXPECT_FALSE(resolved.ok());
  return resolved.ok() ? RequestError{} : resolved.error();
}

TEST(RunRequestParseTest, ParsesEveryKey) {
  const RunRequest request = ParseOk(
      "# a comment\n"
      "name = my-run\n"
      "tag = client-7\n"
      "scenario = paper-mixed\n"
      "topology = 2:4:2\n"
      "policy = energy_aware\n"
      "governor = ondemand\n"
      "duration-s = 60.5\n"
      "max-power = 40\n"
      "temp-limit = 38\n"
      "throttle = true\n"
      "faults = off:1@5,on:1@9\n"
      "skip-ahead = off\n"
      "seed = 7\n"
      "runs = 3\n");
  EXPECT_EQ(request.name, "my-run");
  EXPECT_EQ(request.tag, "client-7");
  EXPECT_EQ(request.scenario, "paper-mixed");
  EXPECT_EQ(request.topology, "2:4:2");
  EXPECT_EQ(request.policy, "energy_aware");
  EXPECT_EQ(request.governor, "ondemand");
  EXPECT_EQ(request.duration_s, 60.5);
  EXPECT_EQ(request.max_power, 40.0);
  EXPECT_EQ(request.temp_limit, 38.0);
  EXPECT_EQ(request.throttle, true);
  EXPECT_EQ(request.faults, "off:1@5,on:1@9");
  EXPECT_EQ(request.skip_ahead, false);
  EXPECT_EQ(request.seed, 7u);
  EXPECT_EQ(request.runs, 3u);
  EXPECT_FALSE(request.workload.has_value());
}

TEST(RunRequestParseTest, SemicolonsSeparatePairsOnOneLine) {
  const RunRequest request = ParseOk("scenario = paper-hot-task; runs = 2; seed = 9");
  EXPECT_EQ(request.scenario, "paper-hot-task");
  EXPECT_EQ(request.runs, 2u);
  EXPECT_EQ(request.seed, 9u);
}

TEST(RunRequestParseTest, BlankLinesAndCommentsIgnored) {
  const RunRequest request = ParseOk("\n  \n# only a comment\npolicy = load_only # trailing\n");
  EXPECT_EQ(request.policy, "load_only");
}

TEST(RunRequestParseTest, RejectsUnknownKeyNamingIt) {
  const std::string error = ParseError("polcy = energy_aware\n");
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown key \"polcy\""), std::string::npos) << error;
  EXPECT_NE(error.find("policy"), std::string::npos) << error;  // lists the known keys

  // The engine has a single tick pipeline, so there is no worker-count key.
  const RequestError intra = ParseErr("intra-threads = 1\n");
  EXPECT_EQ(intra.code, RequestErrorCode::kUnknownKey);
  EXPECT_EQ(intra.key, "intra-threads");
}

TEST(RunRequestParseTest, ErrorsCarryCodeKeyAndLine) {
  // The structured triple the daemon serializes: what kind of rejection,
  // which key, which line - alongside the unchanged legacy rendering.
  const RequestError unknown = ParseErr("polcy = energy_aware\n");
  EXPECT_EQ(unknown.code, RequestErrorCode::kUnknownKey);
  EXPECT_EQ(unknown.key, "polcy");
  EXPECT_EQ(unknown.line, 1u);
  EXPECT_EQ(unknown.Render(), "line 1: " + unknown.message);

  const RequestError bad = ParseErr("scenario = a\nmax-power = x\n");
  EXPECT_EQ(bad.code, RequestErrorCode::kBadValue);
  EXPECT_EQ(bad.key, "max-power");
  EXPECT_EQ(bad.line, 2u);

  const RequestError duplicate = ParseErr("seed = 1\nseed = 2\n");
  EXPECT_EQ(duplicate.code, RequestErrorCode::kDuplicateKey);
  EXPECT_EQ(duplicate.key, "seed");
  EXPECT_EQ(duplicate.line, 2u);

  const RequestError syntax = ParseErr("just words\n");
  EXPECT_EQ(syntax.code, RequestErrorCode::kSyntax);
  EXPECT_TRUE(syntax.key.empty());

  EXPECT_EQ(ParseErr("policy =\n").code, RequestErrorCode::kEmptyValue);

  // Resolve-time errors carry the key but no line (nothing was parsed).
  RunRequest request;
  request.scenario = "no-such-scenario";
  const RequestError resolve = ResolveErr(request);
  EXPECT_EQ(resolve.code, RequestErrorCode::kUnknownName);
  EXPECT_EQ(resolve.key, "scenario");
  EXPECT_EQ(resolve.line, 0u);
  EXPECT_EQ(resolve.Render(), resolve.message);
}

TEST(RunRequestParseTest, RejectsBadValuesNamingLineAndKey) {
  EXPECT_NE(ParseError("duration-s = fast\n").find("bad value for duration-s"),
            std::string::npos);
  EXPECT_NE(ParseError("seed = -3\n").find("bad value for seed"), std::string::npos);
  EXPECT_NE(ParseError("runs = 2.5\n").find("bad value for runs"), std::string::npos);
  EXPECT_NE(ParseError("throttle = maybe\n").find("bad value for throttle"),
            std::string::npos);
  EXPECT_NE(ParseError("skip-ahead = bananas\n").find("bad value for skip-ahead"),
            std::string::npos);
  EXPECT_NE(ParseError("scenario = a\nmax-power = x\n").find("line 2"), std::string::npos);
}

TEST(RunRequestParseTest, RejectsNonFiniteNumbers) {
  // strtod accepts nan/inf spellings and overflows to inf; no numeric
  // request field can mean anything non-finite.
  EXPECT_NE(ParseError("duration-s = nan\n").find("bad value for duration-s"),
            std::string::npos);
  EXPECT_NE(ParseError("max-power = inf\n").find("bad value for max-power"),
            std::string::npos);
  EXPECT_NE(ParseError("temp-limit = 1e999\n").find("bad value for temp-limit"),
            std::string::npos);
}

TEST(RunRequestParseTest, RejectsMalformedPairs) {
  EXPECT_NE(ParseError("just words\n").find("expected key = value"), std::string::npos);
  EXPECT_NE(ParseError("= value\n").find("missing key"), std::string::npos);
  EXPECT_NE(ParseError("policy =\n").find("empty value"), std::string::npos);
  EXPECT_NE(ParseError("seed = 1\nseed = 2\n").find("duplicate key \"seed\""),
            std::string::npos);
}

TEST(RunRequestApplyFieldTest, SharesTheParserValidation) {
  // The one-pair entry point eastool's flags use: same keys, same value
  // strictness as the file parser.
  RunRequest request;
  auto apply = [&request](const char* key, const char* value) {
    return ApplyRunRequestField(key, value, &request);
  };
  EXPECT_FALSE(apply("seed", "7").has_value());
  EXPECT_EQ(request.seed, 7u);
  EXPECT_FALSE(apply("policy", "load_only").has_value());
  EXPECT_FALSE(apply("tag", "sweep-a").has_value());
  EXPECT_EQ(request.tag, "sweep-a");

  auto error = apply("seed", "4z2");
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->message.find("bad value for seed"), std::string::npos) << error->message;
  EXPECT_EQ(error->code, RequestErrorCode::kBadValue);
  error = apply("duration-s", "fast");
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->message.find("bad value for duration-s"), std::string::npos);
  error = apply("polcy", "eas");
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->message.find("unknown key"), std::string::npos);
  error = apply("scenario", "");
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->message.find("empty value"), std::string::npos);
  EXPECT_EQ(error->code, RequestErrorCode::kEmptyValue);
  EXPECT_EQ(request.seed, 7u);  // failed applies leave the request alone
}

TEST(RunRequestResolveTest, RejectsValuesTheTextFormatCannotCarry) {
  // A resolved request must round-trip through Format/Parse unchanged -
  // that is what makes --print-request files and JSONL-embedded requests
  // exact reproduction recipes - so values with comment/separator
  // characters or edge whitespace are rejected up front.
  RunRequest request;
  request.name = "warm-up #3";
  EXPECT_NE(ResolveErr(request).Render().find("bad name"), std::string::npos);

  request = RunRequest{};
  request.workload = "trace:/data/run #1.csv";
  EXPECT_NE(ResolveErr(request).Render().find("bad workload"), std::string::npos);

  request = RunRequest{};
  request.name = "a;b";
  EXPECT_FALSE(ResolveRunRequest(request).ok());

  request = RunRequest{};
  request.name = " padded ";
  EXPECT_FALSE(ResolveRunRequest(request).ok());

  // The tag is carried by the same text format, so the same rules apply.
  request = RunRequest{};
  request.tag = "demo;run";
  EXPECT_NE(ResolveErr(request).Render().find("bad tag"), std::string::npos);
}

TEST(RunRequestFormatTest, FormatParseIsIdentity) {
  RunRequest request;
  request.name = "probe";
  request.tag = "lane-2";
  request.topology = "1:2:1";
  request.workload = "hot:4";
  request.policy = "load_only";
  request.duration_s = 12.5;
  request.throttle = false;
  request.skip_ahead = false;
  request.seed = 11;
  request.runs = 4;
  const std::string text = FormatRunRequest(request);
  EXPECT_EQ(ParseOk(text), request);
  EXPECT_EQ(ParseOk(FormatRunRequestLine(request)), request);
}

TEST(RunRequestFormatTest, FormatOfParseIsAFixedPoint) {
  // Whatever spelling the user wrote, one Parse/Format pass canonicalizes
  // it and further passes change nothing.
  const std::string messy =
      "  runs=2 ;seed = 5\n# comment\npolicy   =  energy_aware\nduration-s = 60.0\n";
  const std::string canonical = FormatRunRequest(ParseOk(messy));
  EXPECT_EQ(FormatRunRequest(ParseOk(canonical)), canonical);
  EXPECT_EQ(canonical, "policy = energy_aware\nduration-s = 60\nseed = 5\nruns = 2\n");
}

TEST(RunRequestFormatTest, UntaggedRequestsFormatWithoutTheTagKey) {
  // The tag key is strictly additive: requests that do not use it must
  // produce the exact pre-tag bytes (and an empty tag is "not using it").
  RunRequest request;
  request.name = "probe";
  request.seed = 11;
  EXPECT_EQ(FormatRunRequest(request), "name = probe\nseed = 11\n");
  EXPECT_EQ(FormatRunRequestLine(request), "name = probe; seed = 11");

  request.tag = "lane-1";
  EXPECT_EQ(FormatRunRequest(request), "name = probe\ntag = lane-1\nseed = 11\n");
  EXPECT_EQ(ParseOk(FormatRunRequest(request)), request);
}

TEST(RunRequestFormatTest, DefaultRequestFormatsEmpty) {
  EXPECT_EQ(FormatRunRequest(RunRequest{}), "");
  EXPECT_EQ(ParseOk(""), RunRequest{});
}

TEST(RunRequestResolveTest, DefaultsMatchTheHistoricalCli) {
  const auto resolved = ResolveRunRequest(RunRequest{});
  ASSERT_TRUE(resolved.ok()) << resolved.error().Render();
  ASSERT_EQ(resolved->specs.size(), 1u);
  const ExperimentSpec& spec = resolved->specs[0];
  EXPECT_EQ(spec.name, "cli");
  EXPECT_EQ(spec.config.topology.num_nodes(), 2u);
  EXPECT_EQ(spec.config.topology.num_logical(), 8u);
  EXPECT_EQ(spec.config.seed, 42u);
  EXPECT_EQ(spec.config.temp_limit, 38.0);
  EXPECT_FALSE(spec.config.throttling_enabled);
  EXPECT_FALSE(spec.config.explicit_max_power_physical.has_value());
  EXPECT_EQ(spec.config.frequency_governor, "none");
  EXPECT_EQ(spec.options.duration_ticks, 120'000);
  EXPECT_EQ(spec.options.sample_interval_ticks, 500);
  EXPECT_EQ(spec.workload.size(), 18u);  // mixed:3
  EXPECT_EQ(resolved->policy, "energy_aware");
  EXPECT_EQ(resolved->governor, "none");
}

TEST(RunRequestResolveTest, ScenarioFieldsInheritUnlessOverridden) {
  // paper-hot-task: 40 W cap, throttling on, 4 bitcnts, task tracing.
  const auto inherited = ResolveRunRequest(RunRequestForScenario("paper-hot-task"));
  ASSERT_TRUE(inherited.ok()) << inherited.error().Render();
  EXPECT_TRUE(inherited->specs[0].config.throttling_enabled);
  EXPECT_EQ(inherited->specs[0].config.explicit_max_power_physical, 40.0);
  EXPECT_EQ(inherited->specs[0].workload.size(), 4u);
  EXPECT_EQ(inherited->specs[0].name, "paper-hot-task");

  RunRequest with_overrides = RunRequestForScenario("paper-hot-task");
  with_overrides.throttle = false;
  with_overrides.seed = 99;
  with_overrides.duration_s = 10.0;
  const auto overridden = ResolveRunRequest(with_overrides);
  ASSERT_TRUE(overridden.ok()) << overridden.error().Render();
  EXPECT_FALSE(overridden->specs[0].config.throttling_enabled);
  EXPECT_EQ(overridden->specs[0].config.seed, 99u);
  EXPECT_EQ(overridden->specs[0].options.duration_ticks, 10'000);
  // Untouched scenario fields survive the overrides.
  EXPECT_EQ(overridden->specs[0].config.explicit_max_power_physical, 40.0);
  EXPECT_EQ(overridden->specs[0].workload.size(), 4u);
}

TEST(RunRequestResolveTest, SkipAheadFlowsIntoTheMachineConfig) {
  const auto defaulted = ResolveRunRequest(RunRequest{});
  ASSERT_TRUE(defaulted.ok()) << defaulted.error().Render();
  EXPECT_TRUE(defaulted->specs[0].config.skip_ahead);

  RunRequest request;
  request.skip_ahead = false;
  const auto disabled = ResolveRunRequest(request);
  ASSERT_TRUE(disabled.ok()) << disabled.error().Render();
  EXPECT_FALSE(disabled->specs[0].config.skip_ahead);
}

TEST(RunRequestResolveTest, FaultsFlowIntoTheMachineConfig) {
  // Unset: no fault plan. Explicit: the spec lands in the config verbatim,
  // validated against the resolved topology. The literal "none" cancels a
  // scenario's baked-in plan; unset inherits it.
  const auto defaulted = ResolveRunRequest(RunRequest{});
  ASSERT_TRUE(defaulted.ok()) << defaulted.error().Render();
  EXPECT_FALSE(defaulted->specs[0].config.faulted());

  RunRequest request;
  request.faults = "off:1@100,on:1@200";
  const auto faulted = ResolveRunRequest(request);
  ASSERT_TRUE(faulted.ok()) << faulted.error().Render();
  EXPECT_EQ(faulted->specs[0].config.fault_spec, "off:1@100,on:1@200");

  const auto inherited = ResolveRunRequest(RunRequestForScenario("chaos-soak"));
  ASSERT_TRUE(inherited.ok()) << inherited.error().Render();
  EXPECT_TRUE(inherited->specs[0].config.faulted());

  RunRequest cancelled = RunRequestForScenario("chaos-soak");
  cancelled.faults = "none";
  const auto clean = ResolveRunRequest(cancelled);
  ASSERT_TRUE(clean.ok()) << clean.error().Render();
  EXPECT_FALSE(clean->specs[0].config.faulted());
}

TEST(RunRequestResolveTest, FaultsValidateAgainstTheResolvedTopology) {
  // The same spec is fine on a wide box and rejected on a narrow one: the
  // plan validates after the topology is final, naming the faults key.
  RunRequest request;
  request.topology = "2:4:1";
  request.faults = "off:7@100";
  ASSERT_TRUE(ResolveRunRequest(request).ok());

  request.topology = "1:2:1";
  const auto narrow = ResolveRunRequest(request);
  ASSERT_FALSE(narrow.ok());
  EXPECT_EQ(narrow.error().code, RequestErrorCode::kBadValue);
  EXPECT_EQ(narrow.error().key, "faults");

  request.faults = "frobnicate:1@2";
  request.topology = "2:4:1";
  const auto unknown = ResolveRunRequest(request);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().key, "faults");
}

TEST(RunRequestFormatTest, FaultsRoundTripThroughTheTextFormat) {
  RunRequest request;
  request.faults = "churn:10@50000:1337,spike:0@6000:12:2500";
  request.seed = 3;
  const std::string text = FormatRunRequest(request);
  EXPECT_NE(text.find("faults = churn:10@50000:1337,spike:0@6000:12:2500\n"),
            std::string::npos);
  const auto reparsed = ParseRunRequest(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().Render();
  EXPECT_EQ(*reparsed, request);
}

TEST(RunRequestResolveTest, DeepTopologyRoundTripsAndResolves) {
  // A five-level spec through the full surface: parse, canonical format
  // fixed point, resolve into the level-list topology.
  const std::string text = "topology = 2:4:2:4:2; duration-s = 1";
  const RunRequest request = ParseOk(text);
  EXPECT_EQ(FormatRunRequest(ParseOk(FormatRunRequest(request))), FormatRunRequest(request));

  const auto resolved = ResolveRunRequest(request);
  ASSERT_TRUE(resolved.ok()) << resolved.error().Render();
  EXPECT_EQ(resolved->specs[0].config.topology.num_physical(), 64u);
  EXPECT_EQ(resolved->specs[0].config.topology.num_logical(), 128u);

  // Named levels round-trip too.
  RunRequest named;
  named.topology = "rack=2:node=2:package=2:smt=2";
  const auto named_resolved = ResolveRunRequest(named);
  ASSERT_TRUE(named_resolved.ok()) << named_resolved.error().Render();
  EXPECT_EQ(named_resolved->specs[0].config.topology.num_logical(), 16u);
  EXPECT_EQ(ParseOk(FormatRunRequest(named)), named);
}

TEST(RunRequestResolveTest, PolicyAliasesNormalize) {
  RunRequest request;
  request.policy = "temp-only";
  const auto resolved = ResolveRunRequest(request);
  ASSERT_TRUE(resolved.ok()) << resolved.error().Render();
  EXPECT_EQ(resolved->policy, "temperature_only");
}

TEST(RunRequestResolveTest, RunsExpandIntoASeedSweep) {
  RunRequest request;
  request.seed = 10;
  request.runs = 3;
  const auto resolved = ResolveRunRequest(request);
  ASSERT_TRUE(resolved.ok()) << resolved.error().Render();
  ASSERT_EQ(resolved->specs.size(), 3u);
  EXPECT_EQ(resolved->specs[0].config.seed, 10u);
  EXPECT_EQ(resolved->specs[2].config.seed, 12u);
  EXPECT_EQ(resolved->specs[2].name, "cli/seed12");
}

TEST(RunRequestResolveTest, RejectionsDiagnose) {
  RunRequest request;

  request.scenario = "no-such-scenario";
  std::string error = ResolveErr(request).Render();
  EXPECT_NE(error.find("unknown scenario"), std::string::npos) << error;
  EXPECT_NE(error.find("paper-mixed"), std::string::npos) << error;  // lists known

  request = RunRequest{};
  request.scenario = "paper-mixed";
  request.workload = "hot:2";
  EXPECT_NE(ResolveErr(request).Render().find("cannot override"), std::string::npos);

  request = RunRequest{};
  request.topology = "junk:0:x";
  EXPECT_NE(ResolveErr(request).Render().find("bad topology"), std::string::npos);

  request = RunRequest{};
  request.policy = "no_such_policy";
  EXPECT_NE(ResolveErr(request).Render().find("unknown policy"), std::string::npos);

  request = RunRequest{};
  request.governor = "no-such-governor";
  EXPECT_NE(ResolveErr(request).Render().find("unknown governor"), std::string::npos);

  request = RunRequest{};
  request.workload = "bogus:3";
  EXPECT_NE(ResolveErr(request).Render().find("bad workload"), std::string::npos);

  request = RunRequest{};
  request.duration_s = 0.0;
  EXPECT_NE(ResolveErr(request).Render().find("bad duration-s"), std::string::npos);

  // Programmatically built requests bypass the parser's finiteness guard;
  // resolve must repeat it.
  request = RunRequest{};
  request.duration_s = std::nan("");
  EXPECT_NE(ResolveErr(request).Render().find("bad duration-s"), std::string::npos);

  request = RunRequest{};
  request.max_power = std::numeric_limits<double>::infinity();
  EXPECT_NE(ResolveErr(request).Render().find("bad max-power"), std::string::npos);

  request = RunRequest{};
  request.temp_limit = std::nan("");
  EXPECT_NE(ResolveErr(request).Render().find("bad temp-limit"), std::string::npos);

  request = RunRequest{};
  request.runs = 0;
  EXPECT_NE(ResolveErr(request).Render().find("bad runs"), std::string::npos);
}

TEST(RunRequestResolveTest, CannedRequestsCoverTheCatalogue) {
  const std::vector<RunRequest> canned = CannedScenarioRequests();
  EXPECT_EQ(canned.size(), ScenarioRegistry::Global().Names().size());
  for (const RunRequest& request : canned) {
    const auto resolved = ResolveRunRequest(request);
    EXPECT_TRUE(resolved.ok())
        << request.scenario << ": " << (resolved.ok() ? "" : resolved.error().Render());
  }
}

TEST(RunRequestResolveTest, CachedResolveMatchesUncached) {
  // The warm-service path: scenario specs and the default library come from
  // a ScenarioCache. The resolved output must be indistinguishable.
  ScenarioCache cache;
  RunRequest scenario = RunRequestForScenario("paper-hot-task");
  const auto cold = ResolveRunRequest(scenario);
  const auto warm1 = ResolveRunRequest(scenario, &cache);
  const auto warm2 = ResolveRunRequest(scenario, &cache);
  ASSERT_TRUE(cold.ok() && warm1.ok() && warm2.ok());
  EXPECT_EQ(cold->specs[0].name, warm2->specs[0].name);
  EXPECT_EQ(cold->specs[0].workload.size(), warm2->specs[0].workload.size());
  EXPECT_EQ(cold->specs[0].config.explicit_max_power_physical,
            warm2->specs[0].config.explicit_max_power_physical);
  const ScenarioCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.scenario_misses, 1u);  // built once...
  EXPECT_EQ(stats.scenario_hits, 1u);    // ...served from cache after

  RunRequest plain;
  plain.workload = "mixed:3";
  const auto cold_plain = ResolveRunRequest(plain);
  const auto warm_plain = ResolveRunRequest(plain, &cache);
  ASSERT_TRUE(cold_plain.ok() && warm_plain.ok());
  EXPECT_EQ(cold_plain->specs[0].workload.size(), warm_plain->specs[0].workload.size());
  EXPECT_EQ(cache.stats().library_misses, 1u);
}

}  // namespace
}  // namespace eas
