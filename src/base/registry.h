// Name -> entry registry: the one lookup table behind the balancing-policy,
// frequency-governor, scenario and sink registries.
//
// Each of those selects a component by string (a flag, a request key, a
// config field) and wraps a Registry whose entries are its factories.
// Entries are kept sorted by name, and `Find` hands out a copy, so callers
// run a factory after the lock is released: a factory may consult its own
// registry, and runner threads build policies and governors while other
// threads look up or register names.

#ifndef SRC_BASE_REGISTRY_H_
#define SRC_BASE_REGISTRY_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace eas {

template <typename T>
class Registry {
 public:
  using Entry = T;

  // Registers `entry` under `name`. Returns false (and keeps the existing
  // entry) if the name is already taken.
  bool Register(const std::string& name, Entry entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.emplace(name, std::move(entry)).second;
  }

  // A copy of the entry registered under `name`; nullopt if unknown.
  std::optional<Entry> Find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

  bool Contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.contains(name);
  }

  // Registered names, sorted.
  std::vector<std::string> Names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      names.push_back(name);
    }
    return names;
  }

  // The diagnostic for a name that is not registered:
  // `unknown <noun> "<name>" (known: a, b, c)`.
  std::string UnknownName(const std::string& noun, const std::string& name) const {
    std::string known;
    for (const std::string& candidate : Names()) {
      known += known.empty() ? candidate : ", " + candidate;
    }
    return "unknown " + noun + " \"" + name + "\" (known: " + known + ")";
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace eas

#endif  // SRC_BASE_REGISTRY_H_
