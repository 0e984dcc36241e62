// Serve-throughput benchmark: what the resident service is for, measured.
// The same request population is driven three ways -
//
//   warm_service  ExperimentService in-process (the serve core: persistent
//                 workers + scenario cache, no transport)
//   warm_socket   the full daemon path: ExperimentServer on a Unix socket,
//                 records streamed back over the wire
//   fork_per_run  one `eastool --request` process per request, the offline
//                 workflow a sweep script would have used
//
// and reported as requests/s (informational: perfbench, BENCHMARK.json,
// gates absolute rates), plus the byte-identity cross-check: every path must
// produce the same JSONL bytes, or the speedup is meaningless. The gated
// number is warm_socket's speedup_vs_fork, the daemon's rate over the
// fork-per-run rate measured in this process: what the resident service
// buys, on any runner.
//
//   $ bench_serve_throughput [--requests=24] [--duration=2000] [--threads=4]
//                            [--eastool=PATH] [--out=BENCH_serve.json]
//
// --eastool enables the fork_per_run leg and with it the speedup (ctest and
// CI pass the built binary); without it only the warm legs run. --duration
// is simulated milliseconds per request. The bench exits 1 when a leg's
// bytes differ from the warm service's.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/service/experiment_server.h"
#include "src/service/service_client.h"

namespace {

// The socket and fork legs run this many times, interleaved round by round.
// The speedup is the median of the per-round ratios: the two legs of a round
// are adjacent in time, and the median drops a round the host preempted.
constexpr int kTimedRounds = 5;

// Warm-socket over fork-per-run rate: 6.3-10.1 over 10 runs on a 4-core
// Xeon and 1.7-2.2 over 10 runs pinned to one core (Release, CI's flags:
// 24 requests, 2000 ms, 4 workers). The floor holds on a 1-core runner, so
// on the 4-core box it trips only on a gross slowdown: 3 ms more per
// submitted request reads 0.97-1.00 there, 1 ms more reads 2.3.
constexpr double kSocketMinSpeedupVsFork = 1.3;

std::vector<std::string> MakeRequests(int count, long long duration_ms) {
  std::vector<std::string> texts;
  texts.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    char text[160];
    std::snprintf(text, sizeof(text),
                  "name = serve-bench; topology = 1:2:1; workload = hot:2; "
                  "duration-s = %g; seed = %d",
                  static_cast<double>(duration_ms) / 1000.0, 100 + i);
    texts.emplace_back(text);
  }
  return texts;
}

// One request -> one record here, so "lines" are indexed by request.
struct LegResult {
  double seconds = 0.0;
  std::vector<std::string> lines;
};

LegResult RunWarmService(const std::vector<std::string>& texts, std::size_t workers) {
  eas::ServiceOptions options;
  options.queue_depth = texts.size();
  options.workers = workers;
  eas::ExperimentService service(options);

  std::mutex mutex;
  std::map<std::uint64_t, std::string> by_submission;
  const eas::bench::Stopwatch clock;
  for (const std::string& text : texts) {
    auto submitted = service.Submit(text, [&](const eas::StreamedRecord& record) {
      std::lock_guard<std::mutex> lock(mutex);
      by_submission[record.submission] = record.jsonl;
    });
    if (!submitted.ok()) {
      std::fprintf(stderr, "warm_service submit: %s\n", submitted.error().Render().c_str());
      std::exit(1);
    }
  }
  service.Drain();

  LegResult leg;
  leg.seconds = clock.Seconds();
  for (const auto& [submission, line] : by_submission) {
    leg.lines.push_back(line);  // ids ascend in submit order
  }
  return leg;
}

LegResult RunWarmSocket(const std::vector<std::string>& texts, std::size_t workers) {
  const std::string socket_path =
      "/tmp/eas_bench_serve_" + std::to_string(::getpid()) + ".sock";
  eas::ServerOptions options;
  options.socket_path = socket_path;
  options.service.queue_depth = texts.size();
  options.service.workers = workers;
  auto server = eas::ExperimentServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "warm_socket start: %s\n", server.error().Render().c_str());
    std::exit(1);
  }

  auto client = eas::ServiceClient::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "warm_socket connect: %s\n", client.error().Render().c_str());
    std::exit(1);
  }
  std::map<std::uint64_t, std::string> by_submission;
  const eas::bench::Stopwatch clock;
  auto outcome = client->SubmitAndStream(texts, [&](const eas::ClientRecord& record) {
    by_submission[record.submission] = record.jsonl;
  });
  const double seconds = clock.Seconds();
  if (!outcome.ok()) {
    std::fprintf(stderr, "warm_socket submit: %s\n", outcome.error().Render().c_str());
    std::exit(1);
  }
  (*server)->Stop();

  LegResult leg;
  leg.seconds = seconds;
  for (const auto& [submission, line] : by_submission) {
    leg.lines.push_back(line);
  }
  return leg;
}

LegResult RunForkPerRun(const std::vector<std::string>& texts, const std::string& eastool) {
  const std::string stem = "/tmp/eas_bench_fork_" + std::to_string(::getpid());
  LegResult leg;
  const eas::bench::Stopwatch clock;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const std::string request_path = stem + "_" + std::to_string(i) + ".txt";
    const std::string jsonl_path = stem + "_" + std::to_string(i) + ".jsonl";
    {
      std::ofstream request_file(request_path);
      request_file << texts[i] << "\n";
    }
    const std::string command = "'" + eastool + "' --request '" + request_path +
                                "' --jsonl '" + jsonl_path + "' > /dev/null 2>&1";
    if (std::system(command.c_str()) != 0) {
      std::fprintf(stderr, "fork_per_run: eastool failed on request %zu\n", i);
      std::exit(1);
    }
    std::ifstream jsonl_file(jsonl_path);
    std::string line;
    std::getline(jsonl_file, line);
    leg.lines.push_back(line);
    std::remove(request_path.c_str());
    std::remove(jsonl_path.c_str());
  }
  leg.seconds = clock.Seconds();
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags = eas::bench::ParseFlags(
      argc, argv, {"requests", "duration", "threads", "eastool", "out"});
  const int requests =
      static_cast<int>(flags.GetInt("requests", 24, 1, std::numeric_limits<int>::max()));
  const long long duration_ms = flags.GetInt("duration", 2000, 1);
  const std::size_t workers =
      static_cast<std::size_t>(flags.GetInt("threads", 4, 1, eas::kMaxServiceWorkers));
  const std::string eastool = flags.GetString("eastool", "");
  const std::string out = flags.GetString("out", "BENCH_serve.json");

  const std::vector<std::string> texts = MakeRequests(requests, duration_ms);

  std::printf("== serve throughput: %d requests x %lld ms simulated ==\n\n", requests,
              duration_ms);

  eas::bench::Report report("serve_throughput");
  report.Config("requests", requests)
      .Config("duration_ms", duration_ms)
      .Config("threads", workers)
      .Config("build_type", eas::bench::kBuildType);
  // warm_service is the reference every other leg's bytes must match.
  const LegResult warm_service = RunWarmService(texts, workers);
  const LegResult warm_socket = RunWarmSocket(texts, workers);
  std::optional<LegResult> fork;
  std::vector<double> round_speedups;
  if (!eastool.empty()) {
    fork = RunForkPerRun(texts, eastool);
    round_speedups.push_back(eas::bench::Ratio(fork->seconds, warm_socket.seconds));
    for (int round = 1; round < kTimedRounds; ++round) {
      const double socket_seconds = RunWarmSocket(texts, workers).seconds;
      round_speedups.push_back(
          eas::bench::Ratio(RunForkPerRun(texts, eastool).seconds, socket_seconds));
    }
  }
  const auto rate = [&](const LegResult& leg) {
    return eas::bench::Ratio(static_cast<double>(texts.size()), leg.seconds);
  };
  const auto leg_row = [&](const char* name, const LegResult& leg) {
    std::printf("  %-12s: %7.3f s  (%.1f requests/s)\n", name, leg.seconds, rate(leg));
    eas::bench::Row row(name);
    row.Info("seconds", leg.seconds).Info("requests_per_second", rate(leg));
    if (&leg != &warm_service) {
      row.Check("identical", leg.lines == warm_service.lines);
    }
    return row;
  };
  report.Add(leg_row("warm_service", warm_service));
  eas::bench::Row socket_row = leg_row("warm_socket", warm_socket);
  if (fork.has_value()) {
    const double speedup = eas::bench::Median(round_speedups);
    socket_row.AtLeast("speedup_vs_fork", speedup, kSocketMinSpeedupVsFork);
    report.Add(socket_row).Add(leg_row("fork_per_run", *fork));
    std::printf("  warm-socket speedup over fork-per-run: %.2fx\n", speedup);
  } else {
    report.Add(socket_row);
    std::printf("  fork_per_run: skipped (pass --eastool=PATH to measure it)\n");
  }
  return report.Write(out);
}
