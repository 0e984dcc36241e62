// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--commit SHA] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// runs the traced phase driver and the request-path probe for the per-layer
// metrics. The last stdout line is the result object; the line before it
// carries the machine fingerprint, sample counts and the record digest.
// Exits 1 when an output check failed, 2 on bad arguments or a crash.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perfbench/src/report.h"
#include "perfbench/src/workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--commit SHA] [--source-digest HEX]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) {
    return Usage("--workload and a positive --seconds are required");
  }

  perfbench::Report report;
  try {
    perfbench::RunWorkload(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  report.Detail("workload", perfbench::JsonString(options.workload));
  report.Detail("seed", std::to_string(options.seed));
  report.Detail("trace", options.trace ? "1" : "0");
  report.Detail("fingerprint",
                "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                    ", \"build_type\": " + perfbench::JsonString(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + perfbench::JsonString(PERFBENCH_COMPILER) +
                    ", \"commit\": " + perfbench::JsonString(commit) +
                    ", \"source_digest\": " + perfbench::JsonString(source_digest) + "}");
  report.Print();
  return report.correct() ? 0 : 1;
}
