// InferenceEngine: the serving front end.
//
//   Submit(graph, options)
//     -> deadline check (expired requests rejected at admission)
//     -> PredictionCache lookup (exact graph digest; hit resolves
//        immediately, skipping preprocessing and the forward pass)
//     -> admission controller (queue depth + observed p95 latency drive a
//        probabilistic load-shed with ResourceExhausted)
//     -> MicroBatcher (bounded MPSC queue, coalesces max_batch / max_wait_us)
//     -> batch dispatch on the dispatcher thread:
//          deadline re-check, preprocess each graph on the ThreadPool
//          (feature map -> alignment -> SparseInput), deadline re-check,
//          then the batched compiled forward pass, sharded across the pool
//     -> promises fulfilled, cache warmed, ServeMetrics updated.
//
// Submit is safe from any number of producer threads. Results are
// std::future<StatusOr<Prediction>>: queue overflow, preprocessing failures,
// load shedding, deadline expiry (with stage attribution), and shutdown all
// surface as typed Status errors on the future, never as exceptions, and
// every accepted request's future is always resolved — including under
// injected faults (see docs/robustness.md for the fail-point catalog).
//
// When `enable_degraded` is set, model-path failures (Unavailable/Internal —
// e.g. an injected preprocessing fault) are answered from the prediction
// cache (stale-ok) or the reference majority-class prior instead of
// surfacing the error; such answers are tagged via Prediction::source and
// counted in ServeMetrics. Client errors (InvalidArgument) and deadline
// expiry are never masked.
#ifndef DEEPMAP_SERVE_ENGINE_H_
#define DEEPMAP_SERVE_ENGINE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "serve/dynamic_graphs.h"
#include "serve/metrics.h"
#include "serve/micro_batcher.h"
#include "serve/model_registry.h"
#include "serve/prediction_cache.h"
#include "serve/replica.h"

namespace deepmap::serve {

/// Per-request submission options.
struct RequestOptions {
  /// Absolute deadline on the steady clock; unset = no deadline. Expired
  /// requests fail with DeadlineExceeded naming the stage that noticed
  /// ("admission", "preprocess", or "forward").
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Fair-share accounting bucket for ServeCluster admission; "" is the
  /// default tenant. Ignored by a single InferenceEngine.
  std::string tenant;

  static RequestOptions WithDeadline(std::chrono::microseconds relative) {
    RequestOptions o;
    o.deadline = std::chrono::steady_clock::now() + relative;
    return o;
  }
};

/// Batched, cached classification service over one ServableModel.
class InferenceEngine {
 public:
  /// Queue-depth + latency driven load shedding, applied at admission to
  /// cache-missing requests. Defaults disable both signals, preserving the
  /// accept-until-queue-full behavior.
  struct AdmissionOptions {
    /// Shedding starts when queue depth exceeds this fraction of
    /// queue_capacity, ramping linearly to certain shed at a full queue.
    /// >= 1 disables the queue signal.
    double queue_shed_watermark = 1.0;
    /// Observed p95 total latency (us) above which shedding starts, ramping
    /// to certain shed at 2x the target. 0 disables the latency signal.
    double p95_target_us = 0.0;
    /// Seed of the shed-decision RNG stream (deterministic for tests).
    uint64_t seed = 0x5eed;
  };

  /// Bounded retry with exponential backoff inside Classify(). Only
  /// retryable errors (ResourceExhausted, Unavailable — shed, queue-full,
  /// injected/transient faults) are retried, and never past the deadline.
  struct RetryOptions {
    int max_attempts = 1;  // total attempts; 1 = no retries
    int64_t initial_backoff_us = 200;
    double backoff_multiplier = 2.0;
    int64_t max_backoff_us = 5000;
  };

  struct Options {
    MicroBatcher::Options batcher;
    /// Prediction-cache entries; 0 disables caching (and skips hash
    /// computation on the submit path entirely).
    size_t cache_capacity = 4096;
    /// Lock stripes of the prediction cache: the key's hash picks a shard,
    /// each with its own mutex + LRU list, so concurrent submitters don't
    /// serialize on one cache lock. 1 = the historical single-lock cache.
    size_t cache_shards = 4;
    /// Worker threads for preprocessing / forward sharding; 0 = hardware
    /// concurrency.
    size_t num_threads = 0;
    AdmissionOptions admission;
    RetryOptions retry;
    /// Registry backing ServeMetrics; must outlive the engine. nullptr (the
    /// default) gives the engine a private registry, so co-resident engines
    /// never share counters. Inject one to aggregate engines into a single
    /// Prometheus scrape.
    obs::MetricsRegistry* metrics_registry = nullptr;
    /// Answer model-path failures from the cache (stale-ok) or the
    /// majority-class prior instead of erroring. Off by default: errors
    /// surface unless the operator opts into degraded service.
    bool enable_degraded = false;
  };

  InferenceEngine(std::shared_ptr<ServableModel> model,
                  const Options& options);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Enqueues one graph for classification.
  std::future<StatusOr<Prediction>> Submit(const graph::Graph& g,
                                           const RequestOptions& request);
  std::future<StatusOr<Prediction>> Submit(const graph::Graph& g) {
    return Submit(g, RequestOptions{});
  }

  /// Synchronous convenience wrapper: Submit + wait, with bounded
  /// retry-with-backoff (Options::retry) on retryable errors.
  StatusOr<Prediction> Classify(const graph::Graph& g,
                                const RequestOptions& request = {});

  /// Dynamic-graph serving. Register a long-lived graph once, then classify
  /// edge deltas against it: ClassifyDelta applies the delta (an O(1)
  /// digest update per edge, not a full rehash), erases exactly the cache
  /// entry of the pre-delta structure, and answers from cache when the
  /// post-delta structure has been classified before — otherwise it runs
  /// the full pipeline on the mutated graph, so the returned logits are
  /// bit-identical to a fresh Classify of that graph.
  Status RegisterDynamicGraph(const std::string& id, graph::Graph g);
  Status UnregisterDynamicGraph(const std::string& id);

  /// Applies `updates` to the registered graph `id` (atomically: an invalid
  /// delta leaves the graph untouched) and classifies the result. The
  /// mutation persists even when classification itself fails — the delta
  /// describes the world, not the request.
  StatusOr<Prediction> ClassifyDelta(
      const std::string& id, const std::vector<graph::EdgeUpdate>& updates,
      const RequestOptions& request = {});

  /// Blocks until every previously submitted request has been answered.
  void Drain();

  const ServeMetrics& metrics() const { return metrics_; }
  const PredictionCache& cache() const { return cache_; }
  const ServableModel& model() const { return *model_; }
  const DynamicGraphStore& dynamic_graphs() const { return dynamic_graphs_; }

  /// Observed p95 total latency (us) over the recent-request window; 0
  /// until enough samples accumulate. Drives the admission controller.
  double observed_p95_us() const { return p95_us_.load(std::memory_order_relaxed); }

 private:
  /// Submit with the cache key already decided: `cache_key` empty = compute
  /// it here (the plain Submit path); `lookup_cache` false = skip the
  /// admission-time lookup but still warm the cache under the key after the
  /// forward pass (the ClassifyDelta miss path, which has already looked
  /// the key up and must not double-count the miss).
  std::future<StatusOr<Prediction>> SubmitPrepared(const graph::Graph& g,
                                                   const RequestOptions& request,
                                                   std::string cache_key,
                                                   bool lookup_cache);

  /// Admission-control decision for one cache-missing request; fills
  /// `detail` with the depth/latency evidence when shedding.
  bool ShouldShed(std::string* detail);

  /// Feeds the sliding window behind observed_p95_us().
  void RecordLatencySample(double total_us);

  std::shared_ptr<ServableModel> model_;
  Options options_;
  ServeMetrics metrics_;
  PredictionCache cache_;
  ThreadPool pool_;
  /// Fixed handle over model_ (a single engine never hot-swaps; the handle
  /// exists because BatchPipeline is shared with the self-healing cluster,
  /// which does).
  ServableHandle servable_;
  BatchPipeline pipeline_;  // runs each dispatched batch (Execute path)

  // Recent total-latency window for the admission controller: cheap to
  // update per request, p95 recomputed every kP95Refresh samples.
  static constexpr size_t kP95Window = 256;
  static constexpr size_t kP95Refresh = 32;
  std::mutex latency_mu_;
  std::array<double, kP95Window> latency_window_{};
  size_t latency_next_ = 0;
  size_t latency_count_ = 0;
  std::atomic<double> p95_us_{0.0};

  std::mutex admission_mu_;  // guards admission_rng_
  Rng admission_rng_;

  /// Registered graphs for ClassifyDelta (their keys equal Submit's
  /// PredictionCache::KeyFor of the same graph).
  DynamicGraphStore dynamic_graphs_;

  std::unique_ptr<MicroBatcher> batcher_;  // last member: stops first
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_ENGINE_H_
