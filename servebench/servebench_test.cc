// Unit tests of the benchmark's own machinery: the percentile rule, the
// seeded traffic generators and due-time latency.
//
//   cmake -S servebench -B .bench_build
//   cmake --build .bench_build --target servebench_tests
//   .bench_build/servebench_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <vector>

#include "stats.h"
#include "traffic.h"

namespace servebench {
namespace {

TEST(PercentileRule, P99NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_FALSE(TailSupported(0, 0.99));
  // The median needs only 20 samples for ten beyond it.
  EXPECT_TRUE(TailSupported(20, 0.5));
}

TEST(PercentileRule, NearestRankOnOneToThousand) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  const LatencyStats stats = Summarize(v);
  EXPECT_EQ(stats.count, 1000u);
  EXPECT_DOUBLE_EQ(stats.p50, 500.0);
  EXPECT_DOUBLE_EQ(stats.p99, 990.0);
}

TEST(PercentileRule, BlocksDropTheTailAndTakeMedians) {
  // Three full blocks whose values are offset by 0, 1000 and 2000, plus a
  // partial block that must not count.
  std::vector<double> v;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 1000; ++i) v.push_back(b * 1000.0 + i);
  }
  for (int i = 0; i < 999; ++i) v.push_back(1e9);
  const BlockLatency blocks = SummarizeBlocks(v, 1000);
  EXPECT_EQ(blocks.blocks, 3u);
  EXPECT_DOUBLE_EQ(blocks.p50, 1500.0);
  EXPECT_DOUBLE_EQ(blocks.p99, 1990.0);
  EXPECT_EQ(SummarizeBlocks(std::vector<double>(999, 1.0), 1000).blocks, 0u);
  // Blocks of 999 cannot put ten samples beyond p99.
  EXPECT_EQ(SummarizeBlocks(v, 999).blocks, 0u);
}

TEST(Poisson, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonArrivals(7, 1000.0, 2.0);
  const std::vector<double> b = PoissonArrivals(7, 1000.0, 2.0);
  const std::vector<double> c = PoissonArrivals(8, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Poisson, AscendingWithinDurationAtTheRate) {
  const std::vector<double> due = PoissonArrivals(3, 2000.0, 5.0);
  ASSERT_FALSE(due.empty());
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_GE(due.front(), 0.0);
  EXPECT_LT(due.back(), 5.0);
  // 10000 expected arrivals; five standard deviations is +-500.
  EXPECT_NEAR(static_cast<double>(due.size()), 10000.0, 500.0);
  EXPECT_TRUE(PoissonArrivals(3, 0.0, 5.0).empty());
}

TEST(Zipf, SameSeedSameDraws) {
  ZipfSampler a(100, 1.0, 3, 11), b(100, 1.0, 3, 11), c(100, 1.0, 3, 12),
      d(100, 1.0, 4, 11);
  std::vector<size_t> da, db, dc, dd;
  for (int i = 0; i < 1000; ++i) {
    da.push_back(a.Next());
    db.push_back(b.Next());
    dc.push_back(c.Next());
    dd.push_back(d.Next());
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);  // another draw seed
  EXPECT_NE(da, dd);  // another hot set
}

TEST(Zipf, SkewedAndInRange) {
  constexpr size_t kItems = 50;
  ZipfSampler zipf(kItems, 1.0, 5, 6);
  std::vector<int> counts(kItems, 0);
  for (int i = 0; i < 100000; ++i) {
    const size_t item = zipf.Next();
    ASSERT_LT(item, kItems);
    ++counts[item];
  }
  // Rank 1 has weight 1 / H(50) ~ 22% of the draws; the median item far less.
  const int hottest = *std::max_element(counts.begin(), counts.end());
  std::vector<int> sorted = counts;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NEAR(hottest / 100000.0, 0.2222, 0.01);
  EXPECT_LT(sorted[kItems / 2] * 10, hottest);
}

TEST(DueTime, LatencyCountsTheSendersDelay) {
  const Clock::time_point due = Clock::time_point{} + std::chrono::seconds(1);
  const Clock::time_point sent = due + std::chrono::milliseconds(5);
  const Clock::time_point done = sent + std::chrono::milliseconds(1);
  // Timed from the due time, a request the sender delayed by 5 ms took 6 ms,
  // not the 1 ms the server spent on it.
  EXPECT_DOUBLE_EQ(DueLatencyUs(due, done), 6000.0);
  EXPECT_DOUBLE_EQ(DueLatencyUs(sent, done), 1000.0);
}

TEST(Seeds, StreamsAreDistinct) {
  EXPECT_NE(MixSeed(1, 1), MixSeed(1, 2));
  EXPECT_NE(MixSeed(1, 1), MixSeed(2, 1));
  EXPECT_EQ(MixSeed(9, 3), MixSeed(9, 3));
}

}  // namespace
}  // namespace servebench
