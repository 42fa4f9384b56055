#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "serve/metrics.h"

namespace servebench {

double Quantile(const std::vector<double>& sorted, double q) {
  return sorted[deepmap::serve::NearestRankIndex(sorted.size(), q)];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - deepmap::serve::NearestRankIndex(n, q);
}

bool TailSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

LatencyStats Summarize(std::vector<double> samples) {
  LatencyStats stats;
  stats.count = samples.size();
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  stats.p50 = Quantile(samples, 0.50);
  stats.p99 = Quantile(samples, 0.99);
  return stats;
}

BlockLatency SummarizeBlocks(const std::vector<double>& in_order,
                             size_t block) {
  BlockLatency out;
  std::vector<double> p50, p99;
  if (!TailSupported(block, 0.99)) return out;
  for (size_t begin = 0; begin + block <= in_order.size(); begin += block) {
    const LatencyStats stats = Summarize(std::vector<double>(
        in_order.begin() + static_cast<std::ptrdiff_t>(begin),
        in_order.begin() + static_cast<std::ptrdiff_t>(begin + block)));
    p50.push_back(stats.p50);
    p99.push_back(stats.p99);
  }
  out.blocks = p50.size();
  if (out.blocks > 0) {
    out.p50 = Median(std::move(p50));
    out.p99 = Median(std::move(p99));
  }
  return out;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM is the kernel's high-water mark of resident memory, in kB.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

}  // namespace servebench
