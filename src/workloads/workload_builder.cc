#include "src/workloads/workload_builder.h"

#include <cerrno>
#include <cstdlib>
#include <string>

namespace eas {

std::vector<const Program*> MixedWorkload(const ProgramLibrary& library, int instances) {
  std::vector<const Program*> spawn;
  for (int i = 0; i < instances; ++i) {
    for (const Program* program : library.Table2Programs()) {
      spawn.push_back(program);
    }
  }
  return spawn;
}

std::vector<const Program*> HomogeneityWorkload(const ProgramLibrary& library, int n_memrw,
                                                int n_pushpop, int n_bitcnts) {
  std::vector<const Program*> spawn;
  int remaining[3] = {n_memrw, n_pushpop, n_bitcnts};
  const Program* programs[3] = {&library.memrw(), &library.pushpop(), &library.bitcnts()};
  // Round-robin interleave so queues mix under naive placement too.
  bool any = true;
  while (any) {
    any = false;
    for (int i = 0; i < 3; ++i) {
      if (remaining[i] > 0) {
        spawn.push_back(programs[i]);
        --remaining[i];
        any = true;
      }
    }
  }
  return spawn;
}

std::vector<const Program*> HotTaskWorkload(const ProgramLibrary& library, int n) {
  return std::vector<const Program*>(static_cast<std::size_t>(n), &library.bitcnts());
}

namespace {

// Parses all of `text` as a decimal count in [min, kMaxWorkloadTasks].
// Trailing junk ("3x", "1e3") and overflow are rejected, not read as a
// prefix or wrapped into a small value.
bool ParseCount(const std::string& text, long long min, long long* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || value < min || value > kMaxWorkloadTasks) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

std::vector<const Program*> ParseWorkloadSpec(const std::string& spec,
                                              const ProgramLibrary& library) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string arg = colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (kind == "mixed") {
    long long instances = 3;
    if (!arg.empty() && !ParseCount(arg, 0, &instances)) {
      return {};
    }
    const auto per_instance = static_cast<long long>(library.Table2Programs().size());
    if (instances * per_instance > kMaxWorkloadTasks) {
      return {};
    }
    return MixedWorkload(library, static_cast<int>(instances));
  }
  if (kind == "homog") {
    const std::size_t first = arg.find(',');
    const std::size_t second = first == std::string::npos ? first : arg.find(',', first + 1);
    long long memrw = 0;
    long long pushpop = 0;
    long long bitcnts = 0;
    if (second == std::string::npos || !ParseCount(arg.substr(0, first), 0, &memrw) ||
        !ParseCount(arg.substr(first + 1, second - first - 1), 0, &pushpop) ||
        !ParseCount(arg.substr(second + 1), 0, &bitcnts) ||
        memrw + pushpop + bitcnts > kMaxWorkloadTasks) {
      return {};
    }
    return HomogeneityWorkload(library, static_cast<int>(memrw), static_cast<int>(pushpop),
                               static_cast<int>(bitcnts));
  }
  if (kind == "hot") {
    long long n = 1;
    if (!arg.empty() && !ParseCount(arg, 0, &n)) {
      return {};
    }
    return HotTaskWorkload(library, static_cast<int>(n));
  }
  if (kind == "short") {
    long long n = 16;
    if (!arg.empty() && !ParseCount(arg, 0, &n)) {
      return {};
    }
    std::vector<const Program*> spawn;
    spawn.reserve(static_cast<std::size_t>(n));
    for (long long i = 0; i < n; ++i) {
      spawn.push_back(i % 2 == 0 ? &library.short_hot() : &library.short_cool());
    }
    return spawn;
  }
  if (kind == "list") {
    // "list:bitcnts*8,memrw*12,sshd" - an explicit spawn list by program
    // name, each entry optionally repeated with *count. Makes ad-hoc mixes
    // (e.g. a consolidation host's service blend) declarable in request
    // files instead of requiring code.
    std::vector<const Program*> spawn;
    long long total = 0;
    std::size_t start = 0;
    while (start <= arg.size()) {
      const std::size_t comma = arg.find(',', start);
      const std::string entry =
          arg.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
      if (entry.empty()) {
        return {};
      }
      const std::size_t star = entry.find('*');
      const std::string name = entry.substr(0, star);
      long long count = 1;
      if (star != std::string::npos && !ParseCount(entry.substr(star + 1), 1, &count)) {
        return {};
      }
      total += count;
      const Program* program = library.ByName(name);
      if (program == nullptr || total > kMaxWorkloadTasks) {
        return {};
      }
      spawn.insert(spawn.end(), static_cast<std::size_t>(count), program);
      if (comma == std::string::npos) {
        break;
      }
      start = comma + 1;
    }
    return spawn;
  }
  return {};
}

}  // namespace eas
