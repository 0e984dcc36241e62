// The benchmark's four workloads and the two kinds of run over them: the
// untraced end-to-end run and the traced per-layer run. README.md says why
// each workload exists and which layer metric moves which end-to-end one.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  // scratch JSONL files and the serve socket
};

// Runs one workload into `report`. Throws std::invalid_argument for an
// unknown workload name.
void RunWorkload(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
