// Registry<Entry>: first registration wins, sorted names, the unknown-name
// diagnostic, entries run outside the lock, and concurrent Find/Register.

#include "src/base/registry.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace eas {
namespace {

TEST(RegistryTest, DuplicateKeepsTheFirstEntry) {
  Registry<int> registry;
  EXPECT_TRUE(registry.Register("x", 1));
  EXPECT_FALSE(registry.Register("x", 2));
  ASSERT_TRUE(registry.Find("x").has_value());
  EXPECT_EQ(*registry.Find("x"), 1);
  EXPECT_TRUE(registry.Contains("x"));
  EXPECT_FALSE(registry.Contains("y"));
  EXPECT_FALSE(registry.Find("y").has_value());
}

TEST(RegistryTest, NamesAreSorted) {
  Registry<int> registry;
  EXPECT_TRUE(registry.Names().empty());
  for (const char* name : {"ondemand", "none", "thermal-stepdown", "a"}) {
    registry.Register(name, 0);
  }
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"a", "none", "ondemand", "thermal-stepdown"}));
}

TEST(RegistryTest, UnknownNameListsEveryRegisteredName) {
  Registry<int> registry;
  EXPECT_EQ(registry.UnknownName("scenario", "nope"), "unknown scenario \"nope\" (known: )");
  registry.Register("plot", 0);
  registry.Register("csv", 0);
  registry.Register("jsonl", 0);
  EXPECT_EQ(registry.UnknownName("sink kind", "xml"),
            "unknown sink kind \"xml\" (known: csv, jsonl, plot)");
}

// Find copies the entry out and releases the lock, so a factory that
// consults its own registry returns instead of deadlocking.
TEST(RegistryTest, FoundEntryRunsOutsideTheLock) {
  Registry<std::function<std::vector<std::string>()>> registry;
  registry.Register("self", [&registry] { return registry.Names(); });
  registry.Register("other", [] { return std::vector<std::string>{}; });
  const auto factory = registry.Find("self");
  ASSERT_TRUE(factory.has_value());
  EXPECT_EQ((*factory)(), (std::vector<std::string>{"other", "self"}));
}

// Runner threads look names up while others register; the TSan leg checks
// this for races.
TEST(RegistryTest, ConcurrentFindAndRegister) {
  Registry<int> registry;
  registry.Register("shared", 7);
  constexpr int kThreads = 4;
  constexpr int kNamesPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kNamesPerThread; ++i) {
        registry.Register("t" + std::to_string(t) + "-" + std::to_string(i), i);
        EXPECT_EQ(registry.Find("shared").value_or(-1), 7);
        EXPECT_FALSE(registry.Register("shared", t));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.Names().size(), 1u + kThreads * kNamesPerThread);
  EXPECT_EQ(*registry.Find("t3-199"), 199);
}

}  // namespace
}  // namespace eas
