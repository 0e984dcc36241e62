// eastool - run energy-aware scheduling experiments from the command line.
//
// Quickstart:
//   eastool --list-scenarios
//   eastool --scenario paper-mixed --duration-s 120 --trace-csv thermal.csv
//   eastool --scenario poisson-open-loop --policy load_only --runs 4
//   eastool --topology 2:4:2 --policy energy_aware --workload mixed:6
//           --duration-s 300 --temp-limit 38 --throttle
//   eastool --policy energy_aware --workload trace:arrivals.csv --summary-csv s.csv
//   eastool --scenario paper-hot-task --runs 3 --print-request > hot.req
//   eastool --request hot.req --summary-csv s.csv
//   eastool --batch sweep.req --jsonl results.jsonl
//
//   eastool serve --socket /tmp/eas.sock             # resident service
//   eastool submit --socket /tmp/eas.sock --batch sweep.req --jsonl out.jsonl
//   eastool status --socket /tmp/eas.sock
//   eastool shutdown --socket /tmp/eas.sock
//
// Every run is described by a RunRequest (src/api/run_request.h): the flags
// below assemble one, --request reads one from a `key = value` file, and
// --print-request writes the canonical file for the current flags - so any
// flag invocation can be captured as data and replayed exactly. --batch
// runs one request per line of a file, fanned across the parallel
// ExperimentRunner together. Results stream through ResultSinks: the
// summary/trace CSVs, JSONL, an ASCII thermal plot, or any --sink
// kind:path spec the SinkRegistry resolves.
//
// The serve/submit/status/shutdown verbs talk the line protocol of
// src/service/wire.h over a Unix socket; `submit` records are byte-for-byte
// what the same request writes through --jsonl offline.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/api/result_sink.h"
#include "src/api/run_session.h"
#include "src/api/sink_registry.h"
#include "src/base/flags.h"
#include "src/fault/fault_plan.h"
#include "src/freq/governor_registry.h"
#include "src/service/experiment_server.h"
#include "src/service/service_client.h"
#include "src/sim/scenario.h"

namespace {

void PrintUsage() {
  std::printf(
      "usage: eastool [verb] [flags]\n"
      "verbs (default: run the request offline, in this process):\n"
      "  serve               run the resident experiment service: listen on\n"
      "                      --socket, admit requests into a bounded queue\n"
      "                      (--queue-depth), execute on a persistent worker\n"
      "                      pool (--threads), stream records back per client\n"
      "  submit              send the current request(s) (flags / --request /\n"
      "                      --batch) to a running service and stream results;\n"
      "                      --jsonl writes records byte-identical to the same\n"
      "                      requests run offline\n"
      "  status              print the service's status JSON (queue depth,\n"
      "                      in-flight and completed runs, runs/s, uptime)\n"
      "  shutdown            drain the service and stop it\n"
      "flags:\n"
      "  --socket PATH       Unix socket the service listens on / clients dial\n"
      "  --queue-depth N     serve: job slots in the admission queue (default 64;\n"
      "                      a submission needing more free slots is rejected\n"
      "                      whole with queue-full)\n"
      "  --list-scenarios    list registered scenarios and exit\n"
      "  --list-sinks        list registered sink kinds and exit\n"
      "  --scenario NAME     run a registered scenario (flags below override it)\n"
      "  --topology SPEC     colon-separated level widths, outermost level first,\n"
      "                      last level = SMT threads per package (default 2:4:1,\n"
      "                      the classic nodes:physical-per-node:smt grid). Up to\n"
      "                      8 levels build arbitrary-depth domain trees, e.g.\n"
      "                      4:8:2:4:2; levels can be named: rack=2:board=4:\n"
      "                      node=8:package=4:smt=2\n"
      "  --policy NAME       any BalancePolicyRegistry name (default energy_aware;\n"
      "                      aliases: baseline = load_only, eas = energy_aware,\n"
      "                      temp-only = temperature_only; '-' matches '_')\n"
      "  --workload SPEC     mixed:<inst> | homog:<m>,<p>,<b> | hot:<n> | short:<n>\n"
      "                      | list:<prog>[*<count>],...  (programs by name)\n"
      "                      | trace:<file.csv>   (rows: tick,program[,nice])\n"
      "  --governor NAME     DVFS frequency governor (default none = P0 pinned;\n"
      "                      see --list-governors)\n"
      "  --list-governors    list registered frequency governors and exit\n"
      "  --faults SPEC       seeded fault plan injected at exact ticks: comma-\n"
      "                      separated off:<cpu>@<tick> | on:<cpu>@<tick> |\n"
      "                      spike:<pkg>@<tick>:<degC>:<dur> |\n"
      "                      clamp:<pkg>@<tick>:<floor>:<dur> |\n"
      "                      churn:<n>@<horizon>:<seed> clauses, or the literal\n"
      "                      none to cancel a scenario's plan (see --list-faults;\n"
      "                      replays are bit-identical for any thread count)\n"
      "  --list-faults       print the fault-plan grammar and exit\n"
      "  --duration-s SEC    simulated seconds (default 120)\n"
      "  --runs N            expand into an N-seed sweep (default 1)\n"
      "  --seed N            experiment seed (default 42)\n"
      "  --tag LABEL         correlation tag echoed into every record (serve\n"
      "                      clients demux on it; empty = untagged)\n"
      "  --max-power W       explicit per-package power limit\n"
      "  --temp-limit C      derive per-package limits from cooling (default 38)\n"
      "  --throttle          enforce thermal throttling\n"
      "  --no-skip-ahead     step quiescent spans tick by tick instead of\n"
      "                      skipping ahead (results are bit-identical; this\n"
      "                      is the A/B timing escape hatch)\n"
      "  --request FILE      load a RunRequest file (key = value lines; flags\n"
      "                      above override its fields)\n"
      "  --batch FILE        run every request in FILE (one per line, 'key = v;\n"
      "                      key = v' form) as one parallel sweep; run-shaping\n"
      "                      flags are rejected, sink flags below apply\n"
      "  --print-request     print the canonical request file for the current\n"
      "                      flags and exit (replay it with --request); with\n"
      "                      --batch, the canonical batch file (one per line)\n"
      "  --threads N         runner/service worker threads, 0 = hardware\n"
      "                      (default 0)\n"
      "  --trace-csv FILE    write each run's per-CPU thermal power trace: run 0\n"
      "                      to FILE, run K of a --runs/--batch sweep to FILE.runK\n"
      "  --summary-csv FILE  write the run summary: a single run keeps the\n"
      "                      key,value format; a sweep writes a table with one\n"
      "                      row per run (columns run,name,seed,<metrics>)\n"
      "  --jsonl FILE        write one JSON object per run (metrics + the\n"
      "                      request that reproduces it); FILE '-' = stdout\n"
      "  --sink SPEC         add a sink by registry spec: csv:PATH | trace:PATH |\n"
      "                      jsonl:PATH | plot:PATH (PATH '-' = stdout)\n"
      "  --plot              print an ASCII thermal-power plot per run\n");
}

constexpr const char* kKnownFlags[] = {
    "help",       "list-scenarios", "list-governors", "list-sinks",  "scenario",
    "topology",   "policy",         "workload",       "governor",    "duration-s",
    "runs",       "seed",           "tag",            "request",     "batch",
    "print-request", "threads",     "trace-csv",      "summary-csv", "jsonl",
    "sink",       "plot",           "max-power",      "temp-limit",  "throttle",
    "no-skip-ahead", "socket",      "queue-depth",    "faults",      "list-faults"};

// The flags that shape the request itself (as opposed to execution/output);
// rejected with --batch, where the batch file is the single source of truth.
constexpr const char* kRequestFlags[] = {"scenario",   "topology",   "policy",
                                         "workload",   "governor",   "duration-s",
                                         "runs",       "seed",       "tag",
                                         "max-power",  "temp-limit", "throttle",
                                         "no-skip-ahead", "request",  "faults"};

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    return false;
  }
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  *out = buffer.str();
  return true;
}

// Overlays the request-shaping flags onto `request` (flags win over a
// --request file, exactly as they win over a --scenario base). Values go
// through the same validation the request-file parser applies, so
// `--seed 4z2` is rejected exactly like `seed = 4z2` in a file instead of
// silently running with seed 0. False (with a printed diagnostic) on a bad
// value.
bool ApplyFlagOverrides(const eas::FlagParser& flags, eas::RunRequest* request) {
  for (const char* key : {"scenario", "topology", "policy", "workload", "governor",
                          "faults", "duration-s", "max-power", "temp-limit", "seed",
                          "runs", "tag"}) {
    if (!flags.Has(key)) {
      continue;
    }
    if (auto error = eas::ApplyRunRequestField(key, flags.GetString(key), request)) {
      std::fprintf(stderr, "--%s: %s\n", key, error->Render().c_str());
      return false;
    }
  }
  // --throttle is a switch (bare --throttle means true), so it cannot go
  // through the key = value path verbatim.
  if (flags.Has("throttle")) {
    request->throttle = flags.GetBool("throttle", false);
  }
  // --no-skip-ahead is likewise a bare switch; it maps onto the request's
  // skip-ahead key (the file spelling of the same choice).
  if (flags.Has("no-skip-ahead")) {
    request->skip_ahead = false;
  }
  return true;
}

// Parses a --batch file into one request per non-blank line. False (with
// printed diagnostics) on a malformed line.
bool LoadBatchRequests(const std::string& path, std::vector<eas::RunRequest>* requests) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    std::fprintf(stderr, "cannot read --batch file %s\n", path.c_str());
    return false;
  }
  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    const std::string body = hash == std::string::npos ? line : line.substr(0, hash);
    if (body.find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // blank or comment-only line
    }
    const auto request = eas::ParseRunRequest(body);
    if (!request.ok()) {
      std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), line_number,
                   request.error().Render().c_str());
      return false;
    }
    eas::RunRequest named = *request;
    if (named.name.empty()) {
      named.name = named.scenario.empty() ? "req" + std::to_string(requests->size())
                                          : named.scenario;
    }
    requests->push_back(std::move(named));
  }
  if (requests->empty()) {
    std::fprintf(stderr, "--batch file %s holds no requests\n", path.c_str());
    return false;
  }
  return true;
}

// Assembles the invocation's requests from --batch / --request / flags,
// exactly the same way for offline runs and `submit`.
bool AssembleRequests(const eas::FlagParser& flags, bool batch,
                      std::vector<eas::RunRequest>* requests) {
  if (batch) {
    for (const char* flag : kRequestFlags) {
      if (flags.Has(flag)) {
        std::fprintf(stderr, "--%s cannot be combined with --batch (put it in the file)\n",
                     flag);
        return false;
      }
    }
    return LoadBatchRequests(flags.GetString("batch"), requests);
  }
  eas::RunRequest request;
  if (flags.Has("request")) {
    const std::string path = flags.GetString("request");
    std::string text;
    if (!ReadFileToString(path, &text)) {
      std::fprintf(stderr, "cannot read --request file %s\n", path.c_str());
      return false;
    }
    const auto parsed = eas::ParseRunRequest(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), parsed.error().Render().c_str());
      return false;
    }
    request = *parsed;
  }
  if (!ApplyFlagOverrides(flags, &request)) {
    return false;
  }
  requests->push_back(std::move(request));
  return true;
}

void PrintResult(const eas::RunRecord& record) {
  const eas::MachineConfig& config = record.spec.config;
  const eas::RunResult& result = record.result;
  std::printf("run:               %s\n", record.spec.name.c_str());
  std::printf("arrivals:          %zu scheduled\n", record.spec.workload.size());
  std::printf("cpus:              %zu logical / %zu physical\n", config.topology.num_logical(),
              config.topology.num_physical());
  std::printf("throughput:        %.1f work-ticks/s\n", result.Throughput());
  std::printf("migrations:        %lld\n", static_cast<long long>(result.migrations));
  std::printf("completions:       %lld\n", static_cast<long long>(result.completions));
  std::printf("avg throttled:     %.2f%%\n", result.AverageThrottledFraction() * 100);
  if (!result.average_frequency.empty()) {
    std::printf("avg frequency:     %.3fx\n", result.AverageFrequencyMultiplier());
  }
  std::printf("peak thermal:      %.1f W\n", result.thermal_power.MaxValue());
  std::printf("spread (steady):   %.1f W\n",
              result.MaxThermalSpreadAfter(record.spec.options.duration_ticks / 2));
}

std::string RequireSocket(const eas::FlagParser& flags) {
  const std::string socket = flags.GetString("socket");
  if (socket.empty()) {
    std::fprintf(stderr, "eastool: this verb needs --socket PATH\n");
  }
  return socket;
}

// --- verbs -------------------------------------------------------------------

int RunServe(const eas::FlagParser& flags) {
  const std::string socket = RequireSocket(flags);
  if (socket.empty()) {
    return 1;
  }
  eas::ServerOptions options;
  options.socket_path = socket;
  options.service.queue_depth =
      static_cast<std::size_t>(std::max(1LL, flags.GetInt("queue-depth", 64)));
  options.service.workers =
      static_cast<std::size_t>(std::max(0LL, flags.GetInt("threads", 0)));
  auto server = eas::ExperimentServer::Start(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "eastool serve: %s\n", server.error().Render().c_str());
    return 1;
  }
  // The smoke script and wrappers poll for this line to know the socket is
  // live; keep it first and flushed.
  std::printf("serving on %s\n", socket.c_str());
  std::fflush(stdout);
  (*server)->Wait();
  std::printf("service stopped\n");
  return 0;
}

int RunSubmit(const eas::FlagParser& flags) {
  const std::string socket = RequireSocket(flags);
  if (socket.empty()) {
    return 1;
  }
  std::vector<eas::RunRequest> requests;
  if (!AssembleRequests(flags, flags.Has("batch"), &requests)) {
    return 1;
  }
  std::vector<std::string> texts;
  texts.reserve(requests.size());
  for (const eas::RunRequest& request : requests) {
    texts.push_back(eas::FormatRunRequestLine(request));
  }

  auto client = eas::ServiceClient::Connect(socket);
  if (!client.ok()) {
    std::fprintf(stderr, "eastool submit: %s\n", client.error().Render().c_str());
    return 1;
  }

  // Records arrive in completion order; for file output they are reordered
  // by (submission, index) so the bytes match the offline --jsonl file for
  // the same request.
  const std::string jsonl_path = flags.GetString("jsonl");
  std::map<std::pair<std::uint64_t, std::size_t>, std::string> ordered;
  auto outcome = client->SubmitAndStream(texts, [&](const eas::ClientRecord& record) {
    if (jsonl_path.empty()) {
      std::printf("%s\n", record.jsonl.c_str());
    } else {
      ordered[{record.submission, record.index}] = record.jsonl;
    }
  });
  if (!outcome.ok()) {
    std::fprintf(stderr, "eastool submit: %s\n", outcome.error().Render().c_str());
    return 1;
  }
  if (!jsonl_path.empty()) {
    eas::JsonlSink sink(jsonl_path);
    for (const auto& [key, line] : ordered) {
      sink.AppendLine(line);
    }
    sink.Finish();
    if (!sink.ok()) {
      std::fprintf(stderr, "eastool submit: %s\n", sink.error().c_str());
      return 1;
    }
    if (jsonl_path != "-") {
      std::printf("jsonl written:     %s\n", jsonl_path.c_str());
    }
  }
  std::fprintf(stderr, "%zu records from %zu submissions\n", outcome->records,
               outcome->submissions.size());
  return 0;
}

int RunStatus(const eas::FlagParser& flags) {
  const std::string socket = RequireSocket(flags);
  if (socket.empty()) {
    return 1;
  }
  auto client = eas::ServiceClient::Connect(socket);
  if (!client.ok()) {
    std::fprintf(stderr, "eastool status: %s\n", client.error().Render().c_str());
    return 1;
  }
  auto status = client->QueryStatus();
  if (!status.ok()) {
    std::fprintf(stderr, "eastool status: %s\n", status.error().Render().c_str());
    return 1;
  }
  std::printf("%s\n", status->c_str());
  return 0;
}

int RunShutdown(const eas::FlagParser& flags) {
  const std::string socket = RequireSocket(flags);
  if (socket.empty()) {
    return 1;
  }
  auto client = eas::ServiceClient::Connect(socket);
  if (!client.ok()) {
    std::fprintf(stderr, "eastool shutdown: %s\n", client.error().Render().c_str());
    return 1;
  }
  auto ack = client->RequestShutdown();
  if (!ack.ok()) {
    std::fprintf(stderr, "eastool shutdown: %s\n", ack.error().Render().c_str());
    return 1;
  }
  std::printf("service stopping\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags(argc, argv);

  // Typos must not be silently swallowed: every flag is validated against
  // the known set before anything runs.
  const std::vector<std::string> unknown(
      flags.UnknownFlags(std::vector<std::string>(std::begin(kKnownFlags),
                                                  std::end(kKnownFlags))));
  if (!unknown.empty()) {
    for (const std::string& flag : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    }
    PrintUsage();
    return 1;
  }

  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }

  if (!flags.positional().empty()) {
    const std::string& verb = flags.positional().front();
    if (flags.positional().size() > 1) {
      std::fprintf(stderr, "eastool: one verb only, got \"%s\" and \"%s\"\n", verb.c_str(),
                   flags.positional()[1].c_str());
      return 1;
    }
    if (verb == "serve") {
      return RunServe(flags);
    }
    if (verb == "submit") {
      return RunSubmit(flags);
    }
    if (verb == "status") {
      return RunStatus(flags);
    }
    if (verb == "shutdown") {
      return RunShutdown(flags);
    }
    std::fprintf(stderr, "unknown verb \"%s\" (known: serve, submit, status, shutdown)\n",
                 verb.c_str());
    PrintUsage();
    return 1;
  }

  if (flags.Has("list-scenarios")) {
    for (const auto& info : eas::ScenarioRegistry::Global().List()) {
      std::printf("%-20s %s\n", info.name.c_str(), info.description.c_str());
    }
    return 0;
  }

  if (flags.Has("list-governors")) {
    for (const std::string& name : eas::FrequencyGovernorRegistry::Global().Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  if (flags.Has("list-faults")) {
    std::fputs(eas::FaultPlanGrammar().c_str(), stdout);
    return 0;
  }

  if (flags.Has("list-sinks")) {
    for (const std::string& name : eas::SinkRegistry::Global().Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  // --- assemble the request(s) ----------------------------------------------
  const bool batch = flags.Has("batch");
  std::vector<eas::RunRequest> requests;
  if (!AssembleRequests(flags, batch, &requests)) {
    return 1;
  }

  // --- resolve ---------------------------------------------------------------
  std::vector<eas::ResolvedRequest> resolved;
  for (const eas::RunRequest& request : requests) {
    auto r = eas::ResolveRunRequest(request);
    if (!r.ok()) {
      std::fprintf(stderr, "eastool: %s\n", r.error().Render().c_str());
      return 1;
    }
    resolved.push_back(std::move(*r));
  }

  if (flags.Has("print-request")) {
    // One canonical request file for a single invocation; for --batch, the
    // canonical batch file (one single-line request per line, replayable
    // with --batch).
    for (const eas::ResolvedRequest& r : resolved) {
      if (batch) {
        std::printf("%s\n", eas::FormatRunRequestLine(r.request).c_str());
      } else {
        std::fputs(eas::FormatRunRequest(r.request).c_str(), stdout);
      }
    }
    return 0;
  }

  // --- sinks -----------------------------------------------------------------
  const std::string trace_csv = flags.GetString("trace-csv");
  const std::string summary_csv = flags.GetString("summary-csv");
  const std::string jsonl_path = flags.GetString("jsonl");
  eas::CsvSink csv(summary_csv, trace_csv);
  eas::JsonlSink jsonl(jsonl_path);
  eas::AsciiPlotSink plot(stdout);

  eas::RunSession session(
      static_cast<std::size_t>(std::max(0LL, flags.GetInt("threads", 0))));
  if (!summary_csv.empty() || !trace_csv.empty()) {
    session.AddSink(csv);
  }
  if (!jsonl_path.empty()) {
    session.AddSink(jsonl);
  }
  if (flags.Has("plot")) {
    session.AddSink(plot);
  }
  // --sink kind:path sinks come from the registry - the same resolution the
  // service uses, so a spec that works here works there.
  std::unique_ptr<eas::ResultSink> registry_sink;
  if (flags.Has("sink")) {
    auto created = eas::SinkRegistry::Global().Create(flags.GetString("sink"));
    if (!created.ok()) {
      std::fprintf(stderr, "--sink: %s\n", created.error().Render().c_str());
      return 1;
    }
    registry_sink = std::move(*created);
    session.AddSink(*registry_sink);
  }

  // --- run (always through the parallel runner) ------------------------------
  std::vector<eas::RunRecord> records;
  try {
    records = session.Run(resolved);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }

  if (!batch) {
    const eas::ResolvedRequest& only = resolved.front();
    std::printf("policy:            %s\n", only.policy.c_str());
    if (only.governor != "none") {
      std::printf("governor:          %s\n", only.governor.c_str());
    }
    if (!only.request.scenario.empty()) {
      std::printf("scenario:          %s\n", only.request.scenario.c_str());
    }
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) {
      std::printf("\n");
    }
    PrintResult(records[i]);
  }

  csv.Finish();
  jsonl.Finish();
  if (registry_sink != nullptr) {
    registry_sink->Finish();
  }
  for (const eas::ResultSink* sink : {static_cast<const eas::ResultSink*>(&csv),
                                      static_cast<const eas::ResultSink*>(&jsonl),
                                      static_cast<const eas::ResultSink*>(registry_sink.get())}) {
    if (sink != nullptr && !sink->ok()) {
      std::fprintf(stderr, "%s\n", sink->error().c_str());
      return 1;
    }
  }
  if (!trace_csv.empty()) {
    std::printf("trace written:     %s%s\n", trace_csv.c_str(),
                records.size() > 1 ? " (+ .runK per run)" : "");
  }
  if (!summary_csv.empty()) {
    std::printf("summary written:   %s%s\n", summary_csv.c_str(),
                records.size() > 1 ? " (one row per run)" : "");
  }
  if (!jsonl_path.empty() && jsonl_path != "-") {
    std::printf("jsonl written:     %s\n", jsonl_path.c_str());
  }
  return 0;
}
