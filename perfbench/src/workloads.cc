#include "perfbench/src/workloads.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "perfbench/src/phase_driver.h"
#include "src/api/result_sink.h"
#include "src/api/run_request.h"
#include "src/api/run_session.h"
#include "src/counters/energy_model.h"
#include "src/service/experiment_server.h"
#include "src/service/experiment_service.h"
#include "src/service/service_client.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// splitmix64: the benchmark's own generator, so the inputs depend only on
// the --seed argument.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }
  std::uint64_t RunSeed() { return 1 + Next() % 1'000'000; }

  // A random permutation of 0..n-1, for stratified draws: parameter k of
  // task i falls in stratum perm[i] of n, so the population's mean hardly
  // moves with the seed while every task still differs.
  std::vector<std::size_t> Permutation(std::size_t n) {
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[Below(i)]);
    return perm;
  }

 private:
  std::uint64_t state_;
};

std::size_t HostThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

// Peak resident memory of this process image. VmHWM, not getrusage's
// ru_maxrss: the latter survives exec, so it would report the launching
// Python interpreter's footprint whenever that was larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // the field is in kB
    }
  }
  return 0.0;
}

eas::RunRequest ParseText(const std::string& text) {
  auto parsed = eas::ParseRunRequest(text);
  if (!parsed.ok()) {
    throw std::runtime_error("request \"" + text + "\": " + parsed.error().Render());
  }
  return *parsed;
}

eas::ResolvedRequest ResolveText(const std::string& text) {
  auto resolved = eas::ResolveRunRequest(ParseText(text));
  if (!resolved.ok()) {
    throw std::runtime_error("request \"" + text + "\": " + resolved.error().Render());
  }
  return std::move(*resolved);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::int64_t TicksOf(const std::vector<eas::ExperimentSpec>& specs) {
  std::int64_t ticks = 0;
  for (const eas::ExperimentSpec& spec : specs) ticks += spec.options.duration_ticks;
  return ticks;
}

// One output check: `spec` through the engine and through the traced
// phase driver must end bit-identical.
void CheckPhaseDriver(const eas::ExperimentSpec& spec, Report& report) {
  double seconds = 0.0;
  PhaseLedger ledger;
  const std::string diff = RunEngine(spec, &seconds).DiffAgainst(RunTraced(spec, ledger));
  report.Operation(diff.empty(), spec.name + ": phase driver differs from the engine in " + diff);
}

// Host time from a sweep's start to each record's delivery.
class LatencySink : public eas::ResultSink {
 public:
  explicit LatencySink(Clock::time_point start) : start_(start) {}
  void Consume(const eas::RunRecord& /*record*/) override {
    latencies_ms.push_back(Since(start_) * 1e3);
  }
  std::vector<double> latencies_ms;

 private:
  Clock::time_point start_;
};

// Keeps every record line a session delivers, in record order.
class CaptureSink : public eas::ResultSink {
 public:
  void Consume(const eas::RunRecord& record) override {
    lines.push_back(eas::JsonlRecordLine(record));
  }
  std::vector<std::string> lines;
};

// What one timed round of an untraced run measured.
struct RoundSample {
  double ticks_per_s = 0.0;
  double runs_per_s = 0.0;
  std::vector<double> latency_ms;
};
using Measured = std::vector<RoundSample>;

// One round: its host wall time and, for the busy fraction, which of the
// workload's traced specs it ran (with repeats).
struct RoundStats {
  double wall_s = 0.0;
  std::vector<std::size_t> runs;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds every input from the seed and gets the workload ready to run its
  // first simulated tick. Timed as setup_s; called several times.
  virtual void SetUp() = 0;

  // One timed round; appends its samples to `measured`.
  virtual RoundStats Round(Measured& measured, Report& report) = 0;

  // Output checks after the timed rounds.
  virtual void Check(Report& report) = 0;

  // The simulated record bytes of one round, for the digest.
  virtual std::string RecordBytes() const = 0;

  // The specs one round runs, for the traced driver, and the request texts
  // the api/service probe pushes through the request path.
  virtual std::vector<eas::ExperimentSpec> TracedSpecs() const = 0;
  virtual std::vector<std::string> ProbeTexts() const = 0;

  // Concurrent runs a round executes (runner threads or service workers).
  virtual std::size_t Threads() const = 0;

  // Releases what SetUp started (the serve daemon), outside setup timing.
  virtual void TearDown() {}
};

// ---------------------------------------------------------------------------
// paper-sweep and cluster: request text -> RunSession -> JsonlSink.

class SessionWorkload : public Workload {
 public:
  SessionWorkload(std::vector<std::string> lines, std::size_t threads, std::string jsonl_path)
      : lines_(std::move(lines)), threads_(threads), jsonl_path_(std::move(jsonl_path)) {}

  void SetUp() override {
    resolved_.clear();
    for (const std::string& line : lines_) resolved_.push_back(ResolveText(line));
  }

  RoundStats Round(Measured& measured, Report& report) override {
    const std::vector<eas::ExperimentSpec> specs = TracedSpecs();
    eas::RunSession session(threads_);
    eas::JsonlSink jsonl(jsonl_path_);
    const Clock::time_point start = Clock::now();
    LatencySink latency(start);
    session.AddSink(jsonl);
    session.AddSink(latency);
    std::size_t records = 0;
    try {
      records = session.Run(resolved_).size();
    } catch (const std::exception& e) {
      report.Operation(false, std::string("sweep: ") + e.what());
    }
    jsonl.Finish();
    const double wall = Since(start);

    report.Operations(static_cast<std::int64_t>(specs.size()),
                      static_cast<std::int64_t>(specs.size() - std::min(records, specs.size())));
    measured.push_back(RoundSample{static_cast<double>(TicksOf(specs)) / wall,
                                   static_cast<double>(records) / wall,
                                   std::move(latency.latencies_ms)});

    const std::string bytes = ReadFile(jsonl_path_);
    report.Operation(jsonl.ok(), "jsonl sink: " + jsonl.error());
    if (first_bytes_.empty()) {
      first_bytes_ = bytes;
    } else {
      report.Operation(bytes == first_bytes_, "round records differ from the first round's");
    }
    RoundStats stats{wall, {}};
    for (std::size_t i = 0; i < specs.size(); ++i) stats.runs.push_back(i);
    return stats;
  }

  void Check(Report& report) override {
    // The timed sweep's bytes against a one-thread run of the same batch.
    eas::RunSession single(1);
    eas::JsonlSink jsonl(jsonl_path_);
    single.AddSink(jsonl);
    single.Run(resolved_);
    jsonl.Finish();
    report.Operation(ReadFile(jsonl_path_) == first_bytes_,
                     "sweep records differ from the one-thread run");
    std::remove(jsonl_path_.c_str());

    // The traced driver against the engine, on each request's first run.
    for (const eas::ResolvedRequest& request : resolved_) {
      CheckPhaseDriver(request.specs.front(), report);
    }
  }

  std::string RecordBytes() const override { return first_bytes_; }

  std::vector<eas::ExperimentSpec> TracedSpecs() const override {
    std::vector<eas::ExperimentSpec> specs;
    for (const eas::ResolvedRequest& request : resolved_) {
      specs.insert(specs.end(), request.specs.begin(), request.specs.end());
    }
    return specs;
  }

  std::vector<std::string> ProbeTexts() const override { return lines_; }

  std::size_t Threads() const override { return threads_; }

 private:
  std::vector<std::string> lines_;
  std::size_t threads_;
  std::string jsonl_path_;
  std::vector<eas::ResolvedRequest> resolved_;
  std::string first_bytes_;
};

// The paper's 8-CPU box under its 60 W cap: both balancing policies, with
// and without the thermal-stepdown governor, sixteen seeds each.
std::unique_ptr<Workload> MakePaperSweep(std::uint64_t seed, const std::string& work_dir) {
  Rng rng(seed);
  std::vector<std::string> lines;
  for (const char* policy : {"energy_aware", "load_only"}) {
    for (const char* governor : {"none", "thermal-stepdown"}) {
      lines.push_back(std::string("scenario = paper-mixed; policy = ") + policy +
                      "; governor = " + governor + "; duration-s = 10; seed = " +
                      std::to_string(rng.RunSeed()) + "; runs = 16");
    }
  }
  const std::size_t threads = std::min<std::size_t>(HostThreads(), 4);
  return std::make_unique<SessionWorkload>(lines, threads, work_dir + "/paper-sweep.jsonl");
}

// The 512-CPU five-level cluster: four seeded runs of two simulated seconds
// per round, one per runner thread. A round takes about half a host second.
// Four runs side by side load every core of the box alike; a single run on
// one thread read whatever its one core's neighbours on the host were doing.
std::unique_ptr<Workload> MakeCluster(std::uint64_t seed, const std::string& work_dir) {
  Rng rng(seed);
  return std::make_unique<SessionWorkload>(
      std::vector<std::string>{
          "scenario = datacenter-consolidation; duration-s = 2; runs = 4; seed = " +
          std::to_string(rng.RunSeed())},
      std::min<std::size_t>(HostThreads(), 4), work_dir + "/cluster.jsonl");
}

// ---------------------------------------------------------------------------
// sparse-idle: generated cron programs -> Experiment specs -> ExperimentRunner.

class SparseIdle : public Workload {
 public:
  explicit SparseIdle(std::uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    const std::uint64_t run_seed = rng.RunSeed();
    // The closed-form half runs ungoverned with hlt off; the reduced half
    // under thermal-stepdown with hlt armed.
    texts_ = {"max-power = 60; seed = " + std::to_string(run_seed),
              "max-power = 60; governor = thermal-stepdown; throttle = true; seed = " +
                  std::to_string(run_seed)};
  }

  void SetUp() override {
    specs_.clear();
    requests_.clear();
    Rng rng(seed_ + 1);
    const eas::Workload cron = CronPopulation(rng);
    const std::string names[2] = {"sparse-idle/closed-form", "sparse-idle/reduced"};
    for (std::size_t i = 0; i < 2; ++i) {
      eas::ResolvedRequest resolved = ResolveText(texts_[i]);
      eas::ExperimentSpec spec = resolved.specs.front();
      spec.name = names[i];
      spec.workload = cron;
      spec.options.duration_ticks = kDurations[i];
      specs_.push_back(std::move(spec));
      resolved.request.name = names[i];
      requests_.push_back(resolved.request);
    }
  }

  RoundStats Round(Measured& measured, Report& report) override {
    // Each round runs the pair kRepeats times over min(nproc, 4) runner
    // threads, which loads every core of the box alike.
    std::vector<eas::ExperimentSpec> batch;
    RoundStats stats;
    for (std::size_t r = 0; r < kRepeats; ++r) {
      for (std::size_t i = 0; i < specs_.size(); ++i) {
        batch.push_back(specs_[i]);
        stats.runs.push_back(i);
      }
    }
    const eas::ExperimentRunner runner(Threads());
    std::vector<eas::RunResult> results(batch.size());
    std::vector<bool> done(batch.size(), false);
    RoundSample sample;
    const Clock::time_point start = Clock::now();
    try {
      runner.RunEach(batch, [&](std::size_t i, eas::RunResult&& result) {
        sample.latency_ms.push_back(Since(start) * 1e3);
        results[i] = std::move(result);
        done[i] = true;
      });
    } catch (const std::exception& e) {
      report.Operation(false, std::string("sparse-idle runner: ") + e.what());
    }
    stats.wall_s = Since(start);
    const auto completed = static_cast<std::size_t>(std::count(done.begin(), done.end(), true));
    report.Operations(static_cast<std::int64_t>(batch.size()),
                      static_cast<std::int64_t>(batch.size() - completed));
    sample.ticks_per_s = static_cast<double>(TicksOf(batch)) / stats.wall_s;
    sample.runs_per_s = static_cast<double>(completed) / stats.wall_s;
    measured.push_back(std::move(sample));

    std::string bytes;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      eas::RunRecord record;
      record.request = requests_[i % specs_.size()];
      record.spec = batch[i];
      record.index = i;
      record.total = batch.size();
      record.result = std::move(results[i]);
      bytes += eas::JsonlRecordLine(record) + "\n";
    }
    if (first_bytes_.empty()) {
      first_bytes_ = bytes;
    } else {
      report.Operation(bytes == first_bytes_, "round records differ from the first round's");
    }
    return stats;
  }

  void Check(Report& report) override {
    // Skip-ahead (the engine as configured) against the traced driver,
    // which steps every tick.
    for (const eas::ExperimentSpec& spec : specs_) CheckPhaseDriver(spec, report);
  }

  std::string RecordBytes() const override { return first_bytes_; }
  std::vector<eas::ExperimentSpec> TracedSpecs() const override { return specs_; }
  std::vector<std::string> ProbeTexts() const override { return texts_; }
  std::size_t Threads() const override { return std::min<std::size_t>(HostThreads(), 4); }

 private:
  // Host time of the two halves is about equal at these lengths: the
  // closed-form kernel advances about ten times as many ticks per host
  // second as the reduced one, which still steps every tick.
  static constexpr eas::Tick kDurations[2] = {400'000, 40'000};
  static constexpr std::size_t kTasks = 8;
  static constexpr std::size_t kRepeats = 8;

  // Cron-style tasks (the shape of bench/tick_hot_path.cc's sparse row):
  // two short bursts, each followed by thousands of ticks asleep, so the
  // machine is quiescent on ~98.5% of ticks. Burst length, sleep and phase
  // power are drawn stratified per task.
  static eas::Workload CronPopulation(Rng& rng) {
    const eas::EnergyModel model = eas::EnergyModel::Default();
    const std::vector<std::size_t> burst = rng.Permutation(kTasks);
    const std::vector<std::size_t> sleep = rng.Permutation(kTasks);
    const std::vector<std::size_t> power = rng.Permutation(kTasks);
    const auto stratum = [&rng](std::size_t slot) {
      return (static_cast<double>(slot) + rng.Unit()) / static_cast<double>(kTasks);
    };
    eas::Workload workload;
    for (std::size_t i = 0; i < kTasks; ++i) {
      std::vector<eas::Phase> phases;
      for (int p = 0; p < 2; ++p) {
        eas::EventRates signature{};
        for (double& rate : signature) rate = 0.5 + rng.Unit();
        eas::Phase phase;
        phase.rates = model.RatesForTargetPower(signature, 30.0 + 10.0 * stratum(power[i]));
        phase.mean_duration = static_cast<eas::Tick>(10.0 + 4.0 * stratum(burst[i]));
        phase.duration_jitter = 0.1;
        phase.mean_sleep_after = static_cast<eas::Tick>(5'000.0 + 2'000.0 * stratum(sleep[i]));
        phase.rate_noise = 0.02;
        phases.push_back(phase);
      }
      const eas::Program* program = workload.Own(std::make_unique<eas::Program>(
          "cron" + std::to_string(i), 0xc400 + i, std::move(phases), /*total_work_ticks=*/0));
      workload.Add(*program);
    }
    return workload;
  }

  std::uint64_t seed_;
  std::vector<std::string> texts_;
  std::vector<eas::ExperimentSpec> specs_;
  std::vector<eas::RunRequest> requests_;
  std::string first_bytes_;
};

// ---------------------------------------------------------------------------
// serve: ExperimentServer on a Unix socket, closed-loop ServiceClients.

class Serve : public Workload {
 public:
  Serve(std::uint64_t seed, std::string socket_path) : socket_path_(std::move(socket_path)) {
    // Half scenario requests (ScenarioCache hits), half flag-built
    // topology/workload requests (the shared program library); every kind
    // appears in the pool a fixed number of times, the seed picks run
    // seeds and the order.
    static const char* kScenarios[] = {"paper-mixed",   "paper-homogeneous", "paper-hot-task",
                                       "short-tasks",   "phase-shift",       "poisson-open-loop",
                                       "dvfs-vs-throttle", "governor-comparison"};
    static const char* kTopologies[] = {"2:4:1", "1:4:1", "2:2:2", "1:2:1"};
    static const char* kWorkloads[] = {"mixed:1", "hot:4", "homog:2,2,2", "short:6"};
    Rng rng(seed);
    for (std::size_t i = 0; i < kPool / 2; ++i) {
      pool_.push_back(std::string("scenario = ") + kScenarios[i % 8] +
                      "; duration-s = 2; seed = " + std::to_string(rng.RunSeed()));
      pool_.push_back(std::string("topology = ") + kTopologies[i % 4] + "; workload = " +
                      kWorkloads[i / 4] + "; policy = " +
                      (i % 2 == 0 ? "energy_aware" : "load_only") +
                      "; governor = " + (i % 3 == 0 ? "thermal-stepdown" : "none") +
                      "; duration-s = 2; seed = " + std::to_string(rng.RunSeed()));
    }
    const std::vector<std::size_t> order = rng.Permutation(pool_.size());
    std::vector<std::string> shuffled;
    for (std::size_t i : order) shuffled.push_back(pool_[i]);
    pool_ = std::move(shuffled);
    for (std::size_t c = 0; c < kClients; ++c) {
      client_rngs_.emplace_back(rng.Next());
      client_cursors_.push_back(c * kPool / kClients);
    }
    for (const std::string& text : pool_) {
      pool_ticks_.push_back(TicksOf(ResolveText(text).specs));
    }
  }

  ~Serve() override { TearDown(); }

  void SetUp() override {
    eas::ServerOptions options;
    options.socket_path = socket_path_;
    options.service.workers = kWorkers;
    options.service.queue_depth = kPool;
    auto server = eas::ExperimentServer::Start(options);
    if (!server.ok()) throw std::runtime_error("serve: " + server.error().Render());
    server_ = std::move(*server);
    for (std::size_t c = 0; c < kClients; ++c) {
      auto client = eas::ServiceClient::Connect(socket_path_);
      if (!client.ok()) throw std::runtime_error("serve: " + client.error().Render());
      clients_.push_back(std::make_unique<eas::ServiceClient>(std::move(*client)));
    }
    // Warm-up: every pool request once, so the scenario cache and the
    // library are built before timing.
    for (std::size_t i = 0; i < pool_.size(); i += 4) {
      std::vector<std::string> group(pool_.begin() + static_cast<std::ptrdiff_t>(i),
                                     pool_.begin() + static_cast<std::ptrdiff_t>(i + 4));
      auto outcome = clients_[(i / 4) % kClients]->SubmitAndStream(group, [](const auto&) {});
      if (!outcome.ok()) throw std::runtime_error("serve warm-up: " + outcome.error().Render());
    }
  }

  RoundStats Round(Measured& measured, Report& report) override {
    struct Group {
      std::vector<std::size_t> members;
      double latency_ms = 0.0;
      bool ok = false;
      std::map<std::uint64_t, std::string> records;  // submission id -> line
      std::vector<std::uint64_t> ids;                // per member
    };
    std::vector<std::vector<Group>> groups(kClients);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = start + std::chrono::milliseconds(kWindowMs);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Rng& rng = client_rngs_[c];
        while (Clock::now() < deadline) {
          Group group;
          const std::size_t size = 1 + rng.Below(4);
          std::vector<std::string> texts;
          for (std::size_t k = 0; k < size; ++k) {
            // Each client walks the shuffled pool in order, so every window
            // sees about the same mix of request kinds.
            group.members.push_back(client_cursors_[c]++ % pool_.size());
            texts.push_back(pool_[group.members.back()]);
          }
          const Clock::time_point sent = Clock::now();
          auto outcome = clients_[c]->SubmitAndStream(
              texts, [&group](const eas::ClientRecord& record) {
                group.records[record.submission] = record.jsonl;
              });
          group.latency_ms = Since(sent) * 1e3;
          group.ok = outcome.ok() && outcome->submissions.size() == size;
          if (group.ok) {
            for (const auto& [id, records] : outcome->submissions) group.ids.push_back(id);
          }
          groups[c].push_back(std::move(group));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double wall = Since(start);

    RoundStats stats{wall, {}};
    RoundSample sample;
    std::int64_t ticks = 0;
    std::size_t runs = 0;
    std::vector<std::pair<std::size_t, std::string>> served;
    for (const std::vector<Group>& client_groups : groups) {
      for (const Group& group : client_groups) {
        report.Operation(group.ok, "serve submission refused or lost");
        sample.latency_ms.push_back(group.latency_ms);
        if (!group.ok) continue;
        for (std::size_t k = 0; k < group.members.size(); ++k) {
          const std::size_t member = group.members[k];
          const auto record = group.records.find(group.ids[k]);
          report.Operation(record != group.records.end(), "serve record missing");
          if (record == group.records.end()) continue;
          served.emplace_back(member, record->second);
          stats.runs.push_back(member);
          ticks += pool_ticks_[member];
          ++runs;
        }
      }
    }
    sample.ticks_per_s = static_cast<double>(ticks) / wall;
    sample.runs_per_s = static_cast<double>(runs) / wall;
    measured.push_back(std::move(sample));

    // Every streamed record against the offline JsonlRecordLine of the same
    // request, run in this process through RunSession (after the window).
    if (offline_.empty()) offline_ = OfflineLines();
    for (const auto& [member, line] : served) {
      report.Operation(line == offline_[member],
                       "serve record differs from offline: " + pool_[member]);
    }
    return stats;
  }

  void Check(Report& report) override {
    // The traced driver against the engine on the first few pool requests.
    const std::vector<eas::ExperimentSpec> specs = TracedSpecs();
    for (std::size_t i = 0; i < 4; ++i) CheckPhaseDriver(specs[i], report);
  }

  std::string RecordBytes() const override {
    std::string bytes;
    for (const std::string& line : offline_) bytes += line + "\n";
    return bytes;
  }

  std::vector<eas::ExperimentSpec> TracedSpecs() const override {
    std::vector<eas::ExperimentSpec> specs;
    for (const std::string& text : pool_) specs.push_back(ResolveText(text).specs.front());
    return specs;
  }

  std::vector<std::string> ProbeTexts() const override { return pool_; }
  std::size_t Threads() const override { return kWorkers; }

 private:
  static constexpr std::size_t kPool = 32;
  // Service workers plus client connections stay within a 4-core box.
  static constexpr std::size_t kWorkers = 2;
  static constexpr std::size_t kClients = 2;
  static constexpr int kWindowMs = 250;

  std::vector<std::string> OfflineLines() const {
    std::vector<std::string> lines;
    for (const std::string& text : pool_) {
      eas::RunSession session(1);
      CaptureSink capture;
      session.AddSink(capture);
      session.Run(ResolveText(text));
      lines.push_back(capture.lines.front());
    }
    return lines;
  }

  void TearDown() override {
    clients_.clear();  // closing the connections ends their server handlers
    if (server_ != nullptr) {
      server_->Stop();
      server_->Wait();
      server_.reset();
    }
  }

  std::string socket_path_;
  std::vector<std::string> pool_;
  std::vector<std::int64_t> pool_ticks_;
  std::vector<Rng> client_rngs_;         // group sizes
  std::vector<std::size_t> client_cursors_;  // next pool request per client
  std::unique_ptr<eas::ExperimentServer> server_;
  std::vector<std::unique_ptr<eas::ServiceClient>> clients_;
  std::vector<std::string> offline_;  // per pool request
};

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "paper-sweep") return MakePaperSweep(options.seed, options.work_dir);
  if (options.workload == "cluster") return MakeCluster(options.seed, options.work_dir);
  if (options.workload == "sparse-idle") return std::make_unique<SparseIdle>(options.seed);
  if (options.workload == "serve") {
    return std::make_unique<Serve>(options.seed, options.work_dir + "/serve.sock");
  }
  throw std::invalid_argument("unknown workload \"" + options.workload + "\"");
}

// Tears the workload down (untimed) and sets it up again; returns the
// set-up's host seconds.
double TimedSetUp(Workload& workload) {
  workload.TearDown();
  const Clock::time_point start = Clock::now();
  workload.SetUp();
  return Since(start);
}

// How many of `n` samples the faster half holds: at least one.
std::size_t FasterHalf(std::size_t n) { return (n + 1) / 2; }

// The median of the lower half of `values`.
double LowHalfMedian(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  values.resize(FasterHalf(values.size()));
  return Median(values);
}

// ---------------------------------------------------------------------------
// The untraced end-to-end run.
//
// Every sample is one round or one set-up, and they are spread over the
// whole run: after each round the workload is set up again while set-ups
// have taken less than kSetUpShare of the elapsed time. Other tenants of a
// shared host slow a process for seconds at a time and never speed it up,
// so each metric is read from the faster half of its samples: the rates are
// the median over the half of the rounds with the most simulated ticks per
// second (about their 75th percentile), the latencies come from those same
// rounds, and setup_s is the median of the quicker half of the set-ups.

constexpr double kSetUpShare = 0.15;
constexpr std::size_t kMinRounds = 10;

void RunEndToEnd(const Options& options, Workload& workload, Report& report) {
  std::vector<double> setup_s = {TimedSetUp(workload)};

  Measured warmup;
  workload.Round(warmup, report);

  Measured measured;
  double setup_total_s = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    workload.Round(measured, report);
    if (setup_total_s < kSetUpShare * Since(start)) {
      setup_s.push_back(TimedSetUp(workload));
      setup_total_s += setup_s.back();
    }
  } while (Since(start) < options.seconds || measured.size() < kMinRounds);
  const double peak_rss_mb = PeakRssMb();

  const std::string record_bytes = workload.RecordBytes();
  workload.Check(report);

  std::sort(measured.begin(), measured.end(), [](const RoundSample& a, const RoundSample& b) {
    return a.ticks_per_s > b.ticks_per_s;
  });
  const std::size_t rounds = measured.size();
  measured.resize(FasterHalf(rounds));
  std::vector<double> ticks_per_s, runs_per_s, latency_ms;
  for (const RoundSample& round : measured) {
    ticks_per_s.push_back(round.ticks_per_s);
    runs_per_s.push_back(round.runs_per_s);
    latency_ms.insert(latency_ms.end(), round.latency_ms.begin(), round.latency_ms.end());
  }

  const Tail tail = TailOf(latency_ms);
  report.Metric("setup_s", LowHalfMedian(setup_s), "s", FasterHalf(setup_s.size()));
  report.Metric("sim_ticks_per_s", Median(ticks_per_s), "1/s", measured.size());
  report.Metric("runs_per_s", Median(runs_per_s), "1/s", measured.size());
  report.Metric("latency_p50_ms", Percentile(latency_ms, 50.0), "ms", latency_ms.size());
  report.Metric("latency_tail_ms", tail.value, "ms", latency_ms.size());
  report.Metric("peak_rss_mb", peak_rss_mb, "MB", 1);
  report.Metric("success_rate", report.SuccessRate(), "frac",
                static_cast<std::size_t>(report.attempted()));
  report.Detail("rounds", std::to_string(rounds));
  report.Detail("setups", std::to_string(setup_s.size()));
  report.Detail("latency_tail_percentile", JsonNumber(tail.percentile));
  report.Detail("latency_tail_samples_beyond", std::to_string(tail.beyond));
  report.Detail("record_digest", JsonString(Digest(record_bytes)));
}

// ---------------------------------------------------------------------------
// The traced per-layer run.

struct ProbeResult {
  std::vector<double> parse_us, resolve_ms, sink_us, admit_us, wait_ms, wire_ms;
  double cache_hit_frac = 0.0;
};

// The probe's copy of a request: the same request with a short simulated
// duration, so the run itself stays small next to the request path.
std::string ShortRequest(const std::string& text) {
  eas::RunRequest request = ParseText(text);
  request.duration_s = 0.05;
  request.runs = 1;
  return eas::FormatRunRequestLine(request);
}

// Pushes each of the workload's requests (shortened) through parse, resolve,
// an offline RunSession run, the in-process service and the socket server,
// one request at a time and each several times, and checks that all three
// paths stream the same record bytes.
ProbeResult ProbeRequestPath(const std::vector<std::string>& workload_texts,
                             const std::string& socket_path, Report& report) {
  constexpr std::size_t kMinSamples = 24;
  std::vector<std::string> texts;
  for (const std::string& text : workload_texts) texts.push_back(ShortRequest(text));
  const std::size_t repeats = (kMinSamples + texts.size() - 1) / texts.size();

  ProbeResult probe;
  std::vector<std::string> offline_lines;
  std::vector<double> offline_ms;  // per text, median over repeats
  for (const std::string& text : texts) {
    for (int i = 0; i < 50; ++i) {
      const Clock::time_point start = Clock::now();
      const auto parsed = eas::ParseRunRequest(text);
      probe.parse_us.push_back(Since(start) * 1e6);
      report.Operation(parsed.ok(), "probe parse: " + text);
    }
    const eas::RunRequest request = ParseText(text);
    std::optional<eas::ResolvedRequest> resolved;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point start = Clock::now();
      auto attempt = eas::ResolveRunRequest(request);
      probe.resolve_ms.push_back(Since(start) * 1e3);
      report.Operation(attempt.ok(), "probe resolve: " + text);
      if (attempt.ok()) resolved = std::move(*attempt);
    }
    if (!resolved.has_value()) {
      throw std::runtime_error("probe: request does not resolve: " + text);
    }
    std::vector<double> run_ms;
    std::vector<eas::RunRecord> records;
    for (std::size_t r = 0; r < repeats; ++r) {
      eas::RunSession session(1);
      CaptureSink capture;
      session.AddSink(capture);
      const Clock::time_point start = Clock::now();
      records = session.Run(*resolved);
      run_ms.push_back(Since(start) * 1e3);
      if (r == 0) offline_lines.push_back(capture.lines.front());
      report.Operation(capture.lines.front() == offline_lines.back(),
                       "offline records differ between repeats: " + text);
    }
    offline_ms.push_back(Median(run_ms));
    for (int i = 0; i < 20; ++i) {
      const Clock::time_point start = Clock::now();
      const std::string line = eas::JsonlRecordLine(records.front());
      probe.sink_us.push_back(Since(start) * 1e6);
      report.Operation(line == offline_lines.back(), "probe sink bytes differ");
    }
  }

  std::vector<std::vector<double>> in_process_ms(texts.size());
  {
    eas::ServiceOptions options;
    options.workers = 2;
    options.queue_depth = 8;
    eas::ExperimentService service(options);
    for (std::size_t r = 0; r < repeats; ++r) {
      for (std::size_t i = 0; i < texts.size(); ++i) {
        std::mutex mutex;
        std::condition_variable done_cv;
        bool done = false;
        std::string line;
        Clock::time_point done_at;
        const Clock::time_point start = Clock::now();
        auto submitted = service.Submit(
            texts[i], [&](const eas::StreamedRecord& record) { line = record.jsonl; },
            [&](std::uint64_t, std::size_t, const std::string&) {
              std::lock_guard<std::mutex> lock(mutex);
              done_at = Clock::now();
              done = true;
              done_cv.notify_all();
            });
        probe.admit_us.push_back(Since(start) * 1e6);
        report.Operation(submitted.ok(), "probe submit: " + texts[i]);
        if (!submitted.ok()) continue;
        std::unique_lock<std::mutex> lock(mutex);
        done_cv.wait(lock, [&] { return done; });
        const double latency_ms = std::chrono::duration<double>(done_at - start).count() * 1e3;
        in_process_ms[i].push_back(latency_ms);
        probe.wait_ms.push_back(latency_ms - offline_ms[i]);
        report.Operation(line == offline_lines[i], "in-process record differs: " + texts[i]);
      }
    }
    const eas::ServiceStatusSnapshot status = service.Status();
    const double lookups =
        static_cast<double>(status.scenario_cache_hits + status.scenario_cache_misses);
    probe.cache_hit_frac =
        lookups > 0 ? static_cast<double>(status.scenario_cache_hits) / lookups : 0.0;
  }

  eas::ServerOptions options;
  options.socket_path = socket_path;
  options.service.workers = 2;
  options.service.queue_depth = 8;
  auto server = eas::ExperimentServer::Start(options);
  if (!server.ok()) throw std::runtime_error("probe server: " + server.error().Render());
  {
    auto client = eas::ServiceClient::Connect(socket_path);
    if (!client.ok()) throw std::runtime_error("probe client: " + client.error().Render());
    for (std::size_t r = 0; r < repeats; ++r) {
      for (std::size_t i = 0; i < texts.size(); ++i) {
        std::string line;
        const Clock::time_point start = Clock::now();
        auto outcome = client->SubmitAndStream(
            {texts[i]}, [&line](const eas::ClientRecord& record) { line = record.jsonl; });
        const double latency_ms = Since(start) * 1e3;
        report.Operation(outcome.ok(), "probe socket submit: " + texts[i]);
        probe.wire_ms.push_back(latency_ms - Median(in_process_ms[i]));
        report.Operation(line == offline_lines[i], "socket record differs: " + texts[i]);
      }
    }
  }
  (*server)->Stop();
  (*server)->Wait();
  return probe;
}

void RunTracedLayers(const Options& options, Workload& workload, Report& report) {
  const Clock::time_point begin = Clock::now();
  workload.SetUp();
  const std::vector<eas::ExperimentSpec> specs = workload.TracedSpecs();

  // Traced passes: each spec through the engine (untraced) and the driver.
  // Pass 0 also times the engine without skip-ahead wherever the driver saw
  // quiescent ticks, so the overhead compares tick-by-tick with
  // tick-by-tick.
  std::vector<PhaseLedger> passes;
  std::vector<std::vector<double>> engine_s(specs.size());
  std::vector<double> untraced_pass_s, traced_pass_s;
  std::vector<double> tick_by_tick_s(specs.size(), 0.0);
  std::vector<double> timer_s;
  do {
    timer_s.push_back(TimerSecondsPerCall());
    PhaseLedger pass;
    double traced_s = 0.0, untraced_s = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      double seconds = 0.0;
      const EndState engine = RunEngine(specs[i], &seconds);
      engine_s[i].push_back(seconds);
      PhaseLedger ledger;
      const Clock::time_point start = Clock::now();
      const EndState traced = RunTraced(specs[i], ledger);
      traced_s += Since(start);
      const std::string diff = engine.DiffAgainst(traced);
      report.Operation(diff.empty(), specs[i].name + ": phase driver differs in " + diff);
      if (passes.empty()) {
        tick_by_tick_s[i] = seconds;
        if (ledger.quiescent_ticks > 0) {
          eas::ExperimentSpec naive = specs[i];
          naive.config.skip_ahead = false;
          const std::string naive_diff =
              RunEngine(naive, &tick_by_tick_s[i]).DiffAgainst(traced);
          report.Operation(naive_diff.empty(),
                           specs[i].name + ": engine without skip-ahead differs in " + naive_diff);
        }
      }
      untraced_s += tick_by_tick_s[i];
      pass.Add(ledger);
    }
    const std::string calls = pass.CheckCalls();
    report.Operation(calls.empty(), "phase driver self-check: " + calls);
    if (!passes.empty()) {
      report.Operation(pass.Counts() == passes.front().Counts(),
                       "exact counts differ between traced passes");
    }
    passes.push_back(pass);
    traced_pass_s.push_back(traced_s);
    untraced_pass_s.push_back(untraced_s);
  } while (passes.size() < 2 || Since(begin) < 0.5 * options.seconds);

  // A warm-up round, then three rounds for the busy fraction: the
  // standalone engine time of a round's runs over threads x round wall.
  Measured scratch;
  workload.Round(scratch, report);
  std::vector<double> busy;
  std::size_t busy_runs = 0;
  for (int r = 0; r < 3; ++r) {
    const RoundStats round = workload.Round(scratch, report);
    double busy_s = 0.0;
    for (std::size_t run : round.runs) busy_s += Median(engine_s[run]);
    busy.push_back(busy_s / (static_cast<double>(workload.Threads()) * round.wall_s));
    busy_runs += round.runs.size();
  }

  const ProbeResult probe =
      ProbeRequestPath(workload.ProbeTexts(), options.work_dir + "/probe.sock", report);

  const PhaseLedger& first = passes.front();
  const double ticks = static_cast<double>(first.ticks);
  const std::size_t n = passes.size();
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    std::vector<double> per_tick;
    for (std::size_t k = 0; k < n; ++k) {
      per_tick.push_back(passes[k].SelfSeconds(static_cast<Phase>(p), timer_s[k]) / ticks * 1e6);
    }
    report.Metric(std::string(PhaseName(static_cast<Phase>(p))) + "_us_per_tick",
                  Median(per_tick), "us", n);
  }
  std::vector<double> advance_us, overhead;
  for (std::size_t k = 0; k < n; ++k) {
    double engine_total = 0.0;
    for (const std::vector<double>& runs : engine_s) engine_total += runs[k];
    advance_us.push_back(engine_total / ticks * 1e6);
    overhead.push_back(traced_pass_s[k] / untraced_pass_s[k] - 1.0);
  }
  report.Metric("sim.advance_us_per_tick", Median(advance_us), "us", n);
  report.Metric("trace_overhead_frac", Median(overhead), "frac", n);
  report.Metric("sim.ticks", ticks, "count", n);
  report.Metric("sim.quiescent_ticks", static_cast<double>(first.quiescent_ticks), "count", n);
  report.Metric("sim.quiescent_frac", static_cast<double>(first.quiescent_ticks) / ticks, "frac",
                n);
  report.Metric("task.executed", static_cast<double>(first.executed), "count", n);
  report.Metric("sim.wakes", static_cast<double>(first.wakes), "count", n);
  report.Metric("sim.arrivals", static_cast<double>(first.arrivals), "count", n);
  report.Metric("core.migrations", static_cast<double>(first.migrations), "count", n);
  report.Metric("sched.completions", static_cast<double>(first.completions), "count", n);
  report.Metric("sim.runner_busy_frac", Median(busy), "frac", busy_runs);
  report.Metric("api.parse_us", Median(probe.parse_us), "us", probe.parse_us.size());
  report.Metric("api.resolve_ms", Median(probe.resolve_ms), "ms", probe.resolve_ms.size());
  report.Metric("api.sink_us", Median(probe.sink_us), "us", probe.sink_us.size());
  report.Metric("service.admit_us", Median(probe.admit_us), "us", probe.admit_us.size());
  report.Metric("service.wait_ms", Median(probe.wait_ms), "ms", probe.wait_ms.size());
  report.Metric("service.wire_ms", Median(probe.wire_ms), "ms", probe.wire_ms.size());
  report.Metric("service.cache_hit_frac", probe.cache_hit_frac, "frac",
                probe.admit_us.size());
  report.Detail("record_digest", JsonString(Digest(workload.RecordBytes())));
  report.Detail("traced_specs", std::to_string(specs.size()));
  report.Detail("timer_ns_per_call", JsonNumber(Median(timer_s) * 1e9));
}

}  // namespace

void RunWorkload(const Options& options, Report& report) {
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (options.trace) {
    RunTracedLayers(options, *workload, report);
  } else {
    RunEndToEnd(options, *workload, report);
  }
}

}  // namespace perfbench
