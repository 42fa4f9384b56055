// Serving observability: per-stage latency, batch-size distribution, queue
// depth, cache hit rate, and request outcomes.
//
// ServeMetrics sits on top of an obs::MetricsRegistry: every scalar count
// (requests, outcomes, cache, batches, retries) is a registry counter and
// every stage latency feeds a registry histogram, so the whole surface is
// lock-free on the record path and exportable as one Prometheus scrape
// (registry()). The only mutex-guarded state left is the retained raw-sample
// store, which exists to serve *exact* order statistics — registry
// histograms answer percentile queries from fixed buckets (interpolated,
// within a few percent); the sample store answers them exactly, and tests
// pin the two against each other.
//
// By default each ServeMetrics owns a private registry, so engines in the
// same process (e.g. test fixtures) never share counters; pass an external
// registry to aggregate several engines into one scrape.
#ifndef DEEPMAP_SERVE_METRICS_H_
#define DEEPMAP_SERVE_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "obs/metrics.h"

namespace deepmap::serve {

/// Order statistics of one latency series (all values in microseconds).
struct LatencySummary {
  int64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

/// Nearest-rank index of quantile `q` in a sorted sample of size `n`:
/// ceil(q*n) - 1, clamped to [0, n-1], with an epsilon guard so inexact
/// doubles (0.95 * 20 is slightly above 19 in binary) cannot push the rank
/// one past the mathematical answer. Exposed for the regression tests.
size_t NearestRankIndex(size_t n, double q);

/// Final disposition of one submitted request (one outcome is recorded per
/// Submit attempt, so the outcome counters always sum to the number of
/// submissions — the invariant the robustness tests pin).
enum class ServeOutcome : int {
  kOk = 0,               // answered by the model (or a warm cache hit)
  kDegraded,             // answered stale-from-cache or by the fallback
  kShed,                 // dropped by admission control under overload
  kDeadlineExceeded,     // deadline passed (any stage)
  kRejected,             // enqueue failed (queue full / shutdown / injected)
  kError,                // any other error surfaced on the future
};
inline constexpr int kNumServeOutcomes = 6;

/// Timings of one served request, in microseconds. A cache hit records
/// preprocess_us == forward_us == 0 (the whole pipeline was skipped), which
/// is how tests verify that hits bypass preprocessing.
struct RequestTiming {
  double queue_us = 0.0;       // submit -> batch dispatch
  double preprocess_us = 0.0;  // feature map -> alignment -> SparseInput
  double forward_us = 0.0;     // batched CNN forward
  double total_us = 0.0;       // submit -> promise fulfilled
  bool cache_hit = false;
};

/// Thread-safe metrics sink for the inference engine.
class ServeMetrics {
 public:
  /// Retained samples per stage; later samples beyond the cap only update
  /// the registry instruments (count/mean/max stay exact).
  static constexpr size_t kMaxLatencySamples = 1 << 20;

  /// `registry` must outlive this object; nullptr = own a private registry.
  explicit ServeMetrics(obs::MetricsRegistry* registry = nullptr);

  void RecordRequest(const RequestTiming& timing);
  void RecordBatch(int batch_size);
  void RecordQueueDepth(size_t depth);
  /// Also counts the ServeOutcome::kRejected outcome.
  void RecordRejected();

  /// Successful / failed dispositions not covered by the helpers above.
  void RecordOutcome(ServeOutcome outcome);
  /// Admission-control drop; also counts the kShed outcome.
  void RecordShed();
  /// Deadline expiry with stage attribution ("admission", "preprocess",
  /// "forward"); also counts the kDeadlineExceeded outcome.
  void RecordDeadlineExceeded(const std::string& stage);
  /// Degraded answers; both also count the kDegraded outcome.
  void RecordDegradedStale();
  void RecordDegradedFallback();
  /// One backoff-and-resubmit cycle inside Classify.
  void RecordRetry();

  /// Dynamic-graph serving (ClassifyDelta). `edges` edge updates applied
  /// incrementally to a registered graph.
  void RecordDynamicUpdate(int64_t edges);
  /// One ClassifyDelta answered by the cache after the O(1) per-edge
  /// digest update (the fast path the feature exists for).
  void RecordDynamicIncrementalHit();
  /// One ClassifyDelta that had to run the full pipeline on the mutated
  /// graph.
  void RecordDynamicFullRecompute();

  /// Stage summaries; `stage` is one of "queue", "preprocess", "forward",
  /// "total". Cache hits are excluded from the queue/preprocess/forward
  /// series (they never enter those stages) but included in "total".
  /// Percentiles are exact order statistics of the retained samples.
  LatencySummary Latency(const std::string& stage) const;

  int64_t requests() const;
  int64_t cache_hits() const;
  int64_t cache_misses() const;
  int64_t rejected() const;
  double cache_hit_rate() const;  // hits / (hits + misses), 0 when empty

  int64_t outcome_count(ServeOutcome outcome) const;
  /// Sum over every outcome == number of Submit attempts that resolved.
  int64_t total_outcomes() const;
  int64_t shed() const;
  int64_t deadline_exceeded() const;  // all stages
  int64_t deadline_exceeded(const std::string& stage) const;
  int64_t degraded() const;  // stale + fallback
  int64_t degraded_stale() const;
  int64_t degraded_fallback() const;
  int64_t retries() const;

  int64_t dynamic_updates() const;  // edge updates, not ClassifyDelta calls
  int64_t dynamic_incremental_hits() const;
  int64_t dynamic_full_recomputes() const;

  int64_t num_batches() const;
  double mean_batch_size() const;
  /// batch size -> number of batches dispatched at that size.
  std::map<int, int64_t> batch_size_histogram() const;

  size_t max_queue_depth() const;
  double mean_queue_depth() const;

  /// Number of requests that actually ran a given stage (preprocess count ==
  /// cache misses when every miss is preprocessed exactly once).
  int64_t stage_count(const std::string& stage) const;

  /// The registry backing every counter and stage histogram. Scrape with
  /// registry().WritePrometheusText(os); metric names are documented in
  /// docs/observability.md.
  const obs::MetricsRegistry& registry() const { return *registry_; }
  obs::MetricsRegistry& registry() { return *registry_; }

  /// "stage | count | p50 | p95 | p99 | mean | max" rows.
  Table LatencyTable() const;
  /// Throughput / cache / batch / queue counters as name-value rows.
  Table SummaryTable() const;

  /// Prints both tables.
  void Print(std::ostream& os) const;

 private:
  /// One latency stage: a registry histogram (lock-free, bucketized, the
  /// scrape surface) plus a capped raw-sample store with exact count/sum/max
  /// for exact order statistics. Everything but the histogram is guarded by
  /// ServeMetrics::mu_.
  struct Series {
    obs::Histogram* histogram = nullptr;  // microseconds recorded as seconds
    std::vector<double> samples;
    int64_t count = 0;
    double sum = 0.0;
    double max = 0.0;

    void Record(double value_us);
    /// Sorts one copy of the samples and reads all three percentiles from
    /// it (the pre-fix code re-sorted per quantile, 3x per snapshot).
    LatencySummary Summarize() const;
  };

  const Series* SeriesFor(const std::string& stage) const;
  obs::Counter& DeadlineStageCounter(const std::string& stage) const;

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;  // == owned_registry_.get() unless injected

  // Registry instruments (addresses stable for the registry's lifetime).
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Counter* rejected_;
  obs::Counter* outcomes_[kNumServeOutcomes];
  obs::Counter* degraded_stale_;
  obs::Counter* degraded_fallback_;
  obs::Counter* retries_;
  obs::Counter* dynamic_updates_;
  obs::Counter* dynamic_incremental_hits_;
  obs::Counter* dynamic_full_recomputes_;
  obs::Counter* batches_;
  obs::Counter* batch_items_;
  obs::Counter* queue_depth_samples_;
  obs::Gauge* queue_depth_sum_;
  obs::Gauge* max_queue_depth_;

  mutable std::mutex mu_;  // guards Series::samples and batch_sizes_
  Series queue_;
  Series preprocess_;
  Series forward_;
  Series total_;
  std::map<int, int64_t> batch_sizes_;
};

/// Cluster-level instruments: dispatch volume, work stealing, continuous-
/// batching admissions, fair-share sheds, and per-replica batch counts.
/// Registered on the cluster's shared registry (one scrape covers every
/// replica); all updates are lock-free counter increments, so replicas
/// record without coordinating. Request-level stats (latency, outcomes,
/// cache) stay in the shared ServeMetrics — this class covers only what is
/// meaningless for a single engine.
class ClusterMetrics {
 public:
  /// `registry` must outlive this object. Registers the aggregate counters
  /// plus one batches/requests counter pair per replica
  /// (deepmap_serve_cluster_replica<i>_{batches,requests}_total).
  ClusterMetrics(obs::MetricsRegistry* registry, size_t num_replicas);

  /// One request routed into a replica queue by the dispatcher.
  void RecordDispatch();
  /// One successful steal operation moving `stolen` requests.
  void RecordSteal(int64_t stolen);
  /// `admitted` requests joined an in-flight batch (continuous batching).
  void RecordContinuousAdmit(int64_t admitted);
  /// One request shed by per-tenant fair-share admission.
  void RecordTenantShed();
  /// One batch of `requests` completed by `replica`.
  void RecordReplicaBatch(size_t replica, int64_t requests);

  int64_t dispatched() const;
  int64_t steals() const;
  int64_t stolen_requests() const;
  int64_t continuous_admits() const;
  int64_t tenant_sheds() const;
  int64_t replica_batches(size_t replica) const;
  int64_t replica_requests(size_t replica) const;
  size_t num_replicas() const { return replica_batches_.size(); }

 private:
  obs::Counter* dispatched_;
  obs::Counter* steals_;
  obs::Counter* stolen_requests_;
  obs::Counter* continuous_admits_;
  obs::Counter* tenant_sheds_;
  std::vector<obs::Counter*> replica_batches_;
  std::vector<obs::Counter*> replica_requests_;
};

/// Supervision / self-healing instruments (deepmap_serve_health_* plus the
/// hot-swap counter deepmap_serve_reload_swaps_total): hang and crash
/// detections, restarts (aggregate and per replica), requests re-dispatched
/// away from failed replicas, poison-pill quarantines, and the live
/// unhealthy-replica gauge. Updated by the cluster's Supervisor; like
/// ClusterMetrics, every update is a lock-free registry increment.
class HealthMetrics {
 public:
  /// `registry` must outlive this object. Registers the aggregate
  /// instruments plus one restart counter per replica
  /// (deepmap_serve_health_replica<i>_restarts_total).
  HealthMetrics(obs::MetricsRegistry* registry, size_t num_replicas);

  /// Watchdog verdicts: one per detected stalled / dead worker.
  void RecordHang();
  void RecordCrash();
  /// One successful worker restart of `replica`.
  void RecordRestart(size_t replica);
  /// `n` requests recovered from a failed replica and re-enqueued on
  /// healthy siblings.
  void RecordRedispatched(int64_t n);
  /// One poison-pill request answered degraded instead of re-dispatched.
  void RecordQuarantined();
  /// One hot model swap applied to the serving handle.
  void RecordModelSwap();
  /// Unhealthy-replica gauge delta (+1 on detection, -1 on restart).
  void AddUnhealthy(int delta);

  int64_t hangs() const;
  int64_t crashes() const;
  int64_t restarts() const;
  int64_t replica_restarts(size_t replica) const;
  int64_t redispatched() const;
  int64_t quarantined() const;
  int64_t model_swaps() const;
  int64_t unhealthy_replicas() const;

 private:
  obs::Counter* hangs_;
  obs::Counter* crashes_;
  obs::Counter* restarts_;
  obs::Counter* redispatched_;
  obs::Counter* quarantined_;
  obs::Counter* model_swaps_;
  obs::Gauge* unhealthy_;
  std::vector<obs::Counter*> replica_restarts_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_METRICS_H_
