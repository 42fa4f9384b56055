// Process-wide metrics: named counters, gauges, and fixed-bucket histograms.
//
// Hot-path cost model: an update is one relaxed atomic RMW on a per-thread
// shard (cache-line padded, so concurrent writers do not false-share); no
// lock, no map lookup, no allocation. The registry mutex is taken only at
// registration (cold) and scrape time; a scrape sums the shards, so readers
// never stall writers. This is what lets instrumentation live on the serve
// submit path, inside ThreadPool tasks, and at GEMM call sites while staying
// under the <2% overhead budget proved by bench/obs_overhead.
//
// Naming convention (enforced at registration, see ValidateMetricName and
// tools/check_metrics_names.py):
//   deepmap_<subsystem>_<name>_total    counters (monotone event counts)
//   deepmap_<subsystem>_<name>_seconds  histograms (durations, in seconds)
//   deepmap_<subsystem>_<name>          gauges (instantaneous values)
//
// Export: WritePrometheusText emits the standard text exposition format
// (counter/gauge/histogram with cumulative `le` buckets); docs/observability.md
// documents the scheme and scrape formats.
#ifndef DEEPMAP_OBS_METRICS_H_
#define DEEPMAP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace deepmap::obs {

/// Number of per-thread update shards per instrument (power of two). Threads
/// hash onto shards by a process-wide thread index, so up to kMetricShards
/// writers update disjoint cache lines.
inline constexpr size_t kMetricShards = 16;

/// This thread's shard index, assigned round-robin at first use.
size_t ThreadShardIndex();

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    cells_[ThreadShardIndex()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
  }
  /// Sum across shards (a scrape-time read; never blocks writers).
  int64_t Value() const;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  struct alignas(64) Cell {
    std::atomic<int64_t> value{0};
  };
  std::array<Cell, kMetricShards> cells_;
  std::string name_;
  std::string help_;
};

/// Instantaneous value. Set/Add/SetMax are lock-free; Add and SetMax make
/// gauges usable as running sums and high-water marks.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// Raises the gauge to `value` if it is higher (high-water mark).
  void SetMax(double value);
  double Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  std::atomic<double> value_{0.0};
  std::string name_;
  std::string help_;
};

/// Point-in-time view of one histogram: per-bucket counts (not cumulative)
/// plus count/sum. bucket_counts.size() == upper_bounds.size() + 1; the last
/// bucket is the +Inf overflow.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<int64_t> bucket_counts;
  int64_t count = 0;
  double sum = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }
  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank — the same estimator Prometheus'
  /// histogram_quantile uses. Returns 0 when empty.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram of double observations (by convention, seconds).
class Histogram {
 public:
  void Observe(double value);
  HistogramSnapshot Snapshot() const;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

  /// `count` bucket upper bounds growing geometrically from `start` by
  /// `factor` (start, start*factor, ...). CHECKs start > 0, factor > 1.
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               int count);
  /// Default latency bounds: 1us to ~110s, factor 1.25 (84 buckets) — fine
  /// enough that interpolated percentiles track exact ones within a few
  /// percent on smooth data, wide enough for minute-scale training epochs.
  static const std::vector<double>& DefaultLatencyBounds();

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::string help,
            std::vector<double> upper_bounds);

  struct alignas(64) Shard {
    std::vector<std::atomic<int64_t>> buckets;  // upper_bounds.size() + 1
    std::atomic<int64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  std::vector<double> upper_bounds_;  // sorted, strictly increasing
  std::array<Shard, kMetricShards> shards_;
  std::string name_;
  std::string help_;
};

/// Validates `name` against the deepmap_<subsystem>_<name> convention and the
/// kind-specific suffix rule (see file comment). `kind` is "counter",
/// "gauge", or "histogram".
Status ValidateMetricName(const std::string& name, const std::string& kind);

/// Name -> instrument map. Get* registers on first use and returns the same
/// instrument (stable address) on every later call; re-registering a name as
/// a different kind, or with an invalid name, is a CHECK failure (the
/// registration-time naming lint).
///
/// Default() is the process-wide registry used by library-internal
/// instrumentation (thread pool, GEMM, fail points, training). Subsystems
/// that need isolated counts — e.g. each ServeCluster — construct their own
/// instance instead.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Default();

  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  /// Empty `upper_bounds` means Histogram::DefaultLatencyBounds(). Bounds of
  /// an already registered histogram are not changed.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds = {},
                          const std::string& help = "");

  /// True when `name` is already registered (any kind).
  bool Has(const std::string& name) const;
  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  /// Prometheus text exposition format, instruments in name order. Safe to
  /// call while other threads are updating instruments.
  void WritePrometheusText(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  mutable std::mutex mu_;  // registration and iteration only
  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace deepmap::obs

#endif  // DEEPMAP_OBS_METRICS_H_
