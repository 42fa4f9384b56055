// Order statistics and process counters for the serve-path benchmark.
#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

/// A percentile is reported only when at least this many samples lie beyond
/// it; with fewer, the value is set by a handful of outliers.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank q-quantile of `sorted` (ascending, non-empty), the rule
/// serve::ServeMetrics uses for its own percentiles.
double Quantile(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// Whether n samples support reporting the q-quantile
/// (SamplesBeyond(n, q) >= kMinSamplesBeyond).
bool TailSupported(size_t n, double q);

/// Median and 99th percentile of one latency series.
struct LatencyStats {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};
LatencyStats Summarize(std::vector<double> samples);

/// Latency over consecutive blocks of a series in arrival order: each
/// block's p50 and p99, and their medians over the blocks. A trailing partial
/// block is dropped, and a block too small to support its p99 (see
/// TailSupported) yields no blocks at all.
struct BlockLatency {
  size_t blocks = 0;
  double p50 = 0.0;  // median of the block p50s
  double p99 = 0.0;  // median of the block p99s
};
BlockLatency SummarizeBlocks(const std::vector<double>& in_order,
                             size_t block);

/// Median of a non-empty sample.
double Median(std::vector<double> values);

/// User + system CPU seconds of the whole process so far (getrusage).
double ProcessCpuSeconds();

/// Peak resident set size of the process so far, in MiB (VmHWM).
double PeakRssMb();

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
