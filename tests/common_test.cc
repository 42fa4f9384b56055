#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table.h"

namespace deepmap {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad r");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad r");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int x = rng.UniformInt(3, 9);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 9);
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(RngTest, SampleAllIsPermutation) {
  Rng rng(4);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng b = a.Fork();
  // Forked stream should not mirror the parent.
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.UniformInt(0, 1 << 20) == b.UniformInt(0, 1 << 20)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(ParallelTest, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ParallelFor(hits.size(), [&](size_t i) { hits[i]++; }, 4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, SingleThreadRunsInline) {
  int sum = 0;
  ParallelFor(10, [&](size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 45);
}

TEST(ParallelTest, ZeroItemsIsNoop) {
  ParallelFor(0, [&](size_t) { FAIL(); }, 4);
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> count{0};
  std::mutex mu;
  std::set<std::thread::id> ran_on;
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] {
      count++;
      std::lock_guard<std::mutex> lock(mu);
      ran_on.insert(std::this_thread::get_id());
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 50);
  // Two helpers plus the Wait() caller.
  EXPECT_LE(ran_on.size(), 3u);
}

TEST(ThreadPoolTest, OneThreadPoolRunsTasksOnTheWaitCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&ran_on] { ran_on.push_back(std::this_thread::get_id()); });
  }
  // No helper thread exists, so nothing runs before the caller waits.
  EXPECT_TRUE(ran_on.empty());
  pool.Wait();
  ASSERT_EQ(ran_on.size(), 8u);
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ThreadPoolTest, DestructorRunsTasksNeverWaitedFor) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 5; ++i) pool.Submit([&count] { ++count; });
  }
  EXPECT_EQ(count.load(), 5);
}

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hello\t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, FormatAccuracy) {
  EXPECT_EQ(FormatAccuracy(54.53, 6.16), "54.53+-6.16");
}

TEST(TableTest, PrintAligned) {
  Table t({"Dataset", "Acc"});
  t.AddRow({"SYNTHIE", "54.53"});
  t.AddRow({"KKI", "62.92"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("Dataset"), std::string::npos);
  EXPECT_NE(out.find("SYNTHIE"), std::string::npos);
  EXPECT_NE(out.find("62.92"), std::string::npos);
}

TEST(TableTest, CsvQuotesCommas) {
  Table t({"a", "b"});
  t.AddRow({"x,y", "z"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_NE(os.str().find("\"x,y\",z"), std::string::npos);
}

}  // namespace
}  // namespace deepmap
