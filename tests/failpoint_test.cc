// Tests for the fail-point framework: trigger modes, determinism, env/spec
// parsing, counters, sync-point hooks, and the zero-cost disabled path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/parallel.h"

namespace deepmap {
namespace {

/// Leaves the process-wide registry clean no matter how a test exits.
struct FailPointGuard {
  ~FailPointGuard() { FailPointRegistry::Instance().DisableAll(); }
};

TEST(FailPointTest, DisabledPointsNeverTrigger) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  EXPECT_FALSE(registry.ShouldTrigger("never.enabled"));
  EXPECT_FALSE(DEEPMAP_FAILPOINT_TRIGGERED("never.enabled"));
  EXPECT_EQ(registry.evaluations("never.enabled"), 0);
  EXPECT_EQ(registry.triggers("never.enabled"), 0);
}

TEST(FailPointTest, AnyActiveTracksActivation) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.DisableAll();
  EXPECT_FALSE(FailPointRegistry::AnyActive());
  registry.Enable("a", FailPointSpec::Always());
  registry.Enable("b", FailPointSpec::Once());
  EXPECT_TRUE(FailPointRegistry::AnyActive());
  registry.Disable("a");
  EXPECT_TRUE(FailPointRegistry::AnyActive());
  registry.Disable("b");
  EXPECT_FALSE(FailPointRegistry::AnyActive());
  // Disabling an unknown name must not corrupt the active count.
  registry.Disable("b");
  EXPECT_FALSE(FailPointRegistry::AnyActive());
}

TEST(FailPointTest, AlwaysAndOnceModes) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.Enable("always", FailPointSpec::Always());
  registry.Enable("once", FailPointSpec::Once());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(registry.ShouldTrigger("always"));
    EXPECT_EQ(registry.ShouldTrigger("once"), i == 0);
  }
  EXPECT_EQ(registry.evaluations("always"), 5);
  EXPECT_EQ(registry.triggers("always"), 5);
  EXPECT_EQ(registry.evaluations("once"), 5);
  EXPECT_EQ(registry.triggers("once"), 1);
}

TEST(FailPointTest, EveryNthFiresOnMultiples) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.Enable("nth", FailPointSpec::EveryNth(3));
  std::vector<int> fired;
  for (int i = 1; i <= 9; ++i) {
    if (registry.ShouldTrigger("nth")) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<int>{3, 6, 9}));
}

TEST(FailPointTest, ProbabilityIsSeededAndDeterministic) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  auto run = [&](uint64_t seed) {
    registry.Enable("prob", FailPointSpec::Probability(0.3, seed));
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(registry.ShouldTrigger("prob"));
    }
    return pattern;
  };
  const std::vector<bool> first = run(7);
  const std::vector<bool> second = run(7);
  EXPECT_EQ(first, second);  // same seed -> identical firing pattern
  const std::vector<bool> other = run(8);
  EXPECT_NE(first, other);  // different stream
  // The rate is in the right ballpark (0.3 +- wide slack over 200 trials).
  const int count = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(count, 30);
  EXPECT_LT(count, 90);
}

TEST(FailPointTest, OnTriggerHookRunsOnFiringOnly) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  std::atomic<int> hook_runs{0};
  FailPointSpec spec = FailPointSpec::EveryNth(2);
  spec.on_trigger = [&] { ++hook_runs; };
  registry.Enable("hooked", std::move(spec));
  for (int i = 0; i < 6; ++i) registry.ShouldTrigger("hooked");
  EXPECT_EQ(hook_runs.load(), 3);
}

TEST(FailPointTest, SpecStringParsing) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  EXPECT_TRUE(registry.EnableFromString("s1", "always").ok());
  EXPECT_TRUE(registry.EnableFromString("s2", "once").ok());
  EXPECT_TRUE(registry.EnableFromString("s3", "every:4").ok());
  EXPECT_TRUE(registry.EnableFromString("s4", "p:0.5").ok());
  EXPECT_TRUE(registry.EnableFromString("s5", "p:0.25:99").ok());
  EXPECT_EQ(registry.ActiveNames().size(), 5u);
  EXPECT_TRUE(registry.EnableFromString("s5", "off").ok());
  EXPECT_FALSE(registry.IsEnabled("s5"));

  EXPECT_FALSE(registry.EnableFromString("bad", "sometimes").ok());
  EXPECT_FALSE(registry.EnableFromString("bad", "every:0").ok());
  EXPECT_FALSE(registry.EnableFromString("bad", "every:x").ok());
  EXPECT_FALSE(registry.EnableFromString("bad", "p:1.5").ok());
  EXPECT_FALSE(registry.EnableFromString("bad", "p:0.5:zz").ok());
  EXPECT_FALSE(registry.EnableFromString("", "always").ok());
  EXPECT_FALSE(registry.IsEnabled("bad"));
}

TEST(FailPointTest, LoadFromEnvParsesMultipleEntries) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  ::setenv("DEEPMAP_FAILPOINTS", "env.a=always; env.b=p:0.1:3 ;env.c=every:2",
           1);
  ASSERT_TRUE(registry.LoadFromEnv().ok());
  EXPECT_TRUE(registry.IsEnabled("env.a"));
  EXPECT_TRUE(registry.IsEnabled("env.b"));
  EXPECT_TRUE(registry.IsEnabled("env.c"));

  ::setenv("DEEPMAP_FAILPOINTS", "missing-equals", 1);
  EXPECT_FALSE(registry.LoadFromEnv().ok());
  ::unsetenv("DEEPMAP_FAILPOINTS");
  EXPECT_TRUE(registry.LoadFromEnv().ok());  // unset -> no-op
}

TEST(FailPointTest, ReEnableResetsCountersAndState) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.Enable("reset", FailPointSpec::Once());
  EXPECT_TRUE(registry.ShouldTrigger("reset"));
  EXPECT_FALSE(registry.ShouldTrigger("reset"));
  registry.Enable("reset", FailPointSpec::Once());  // re-arm
  EXPECT_EQ(registry.evaluations("reset"), 0);
  EXPECT_TRUE(registry.ShouldTrigger("reset"));
}

TEST(FailPointTest, InjectedErrorIsTypedAndAttributed) {
  FailPointGuard guard;
  FailPointRegistry::Instance().Enable("site.name",
                                       FailPointSpec::Always());
  auto fallible = []() -> Status {
    DEEPMAP_INJECT_FAULT("site.name");
    return Status::Ok();
  };
  Status s = fallible();
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_NE(s.message().find("site.name"), std::string::npos);
  EXPECT_TRUE(IsRetryable(s.code()));
}

TEST(FailPointTest, ThreadPoolDelayFaultPreservesSemantics) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.Enable("pool.task.delay", FailPointSpec::EveryNth(2));
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] { ++done; });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 16);  // delays never drop or reorder completions
  EXPECT_GT(registry.triggers("pool.task.delay"), 0);
}

TEST(FailPointTest, ThreadPoolDelayFaultFiresOnCallerRunTasks) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.Enable("pool.task.delay", FailPointSpec::Always());
  ThreadPool pool(1);  // no helpers: Wait() runs every task itself
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] { ++done; });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 4);
  EXPECT_EQ(registry.triggers("pool.task.delay"), 4);
}

TEST(FailPointTest, ConcurrentEvaluationIsSafe) {
  FailPointGuard guard;
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.Enable("contended", FailPointSpec::Probability(0.5, 11));
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        if (registry.ShouldTrigger("contended")) ++fired;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.evaluations("contended"), 2000);
  EXPECT_EQ(registry.triggers("contended"), fired.load());
}

}  // namespace
}  // namespace deepmap
