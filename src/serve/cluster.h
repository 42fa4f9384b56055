// ServeCluster: multi-replica serving over one hot-swappable ServableModel.
//
//   Submit(graph, options)
//     -> deadline check (expired requests rejected at admission)
//     -> shared sharded PredictionCache lookup (exact graph digest; hit
//        resolves immediately without touching any replica)
//     -> per-tenant fair-share admission: when the aggregate backlog exceeds
//        the watermark, tenants holding more than their fair share of the
//        cluster's queue capacity are shed (ResourceExhausted) so one noisy
//        tenant cannot starve the rest
//     -> join-shortest-queue dispatch into a *healthy* replica's bounded
//        queue (a Supervisor-quarantined replica receives no traffic until
//        its worker is restarted)
//     -> the replica pops its queue FIFO, runs the staged BatchPipeline with
//        continuous batching (arrivals during preprocessing join the
//        in-flight batch), and steals from the longest healthy sibling queue
//        when its own is empty.
//
// All replicas share one ServableHandle, so at any instant cluster
// predictions are bit-identical to a single InferenceEngine's on the same
// servable — which replica served a request is unobservable in its logits.
// UpdateModel() swaps the handle atomically: batches already in flight
// finish on the version they pinned at Begin, later batches pick up the new
// one, and the shared cache is cleared so no stale-version prediction is
// ever served as fresh. ModelRegistry::Subscribe + Reload wire a validated
// hot reload straight into this swap.
//
// Replicas also share one ServeMetrics (request-level stats aggregate across
// replicas), one ClusterMetrics (dispatch/steal/admit/shed counters), and
// one HealthMetrics (supervision counters), all on a single registry scrape.
//
// A Supervisor watchdog (options.supervision) detects hung/crashed workers,
// re-dispatches their requests to healthy siblings, quarantines poison
// pills, and restarts failed workers with exponential backoff — see
// serve/supervisor.h and docs/robustness.md.
//
// There is no per-cluster MicroBatcher and no max_wait_us: batching emerges
// from queue pressure. An idle replica starts on a single request
// immediately; under load, batches fill to max_batch. Shutdown drains —
// every accepted request's future is resolved before the destructor returns.
#ifndef DEEPMAP_SERVE_CLUSTER_H_
#define DEEPMAP_SERVE_CLUSTER_H_

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/engine.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/prediction_cache.h"
#include "serve/replica.h"
#include "serve/supervisor.h"

namespace deepmap::serve {

/// N EngineReplicas behind one dispatcher, one cache, one metrics surface,
/// one supervisor.
class ServeCluster {
 public:
  struct Options {
    size_t num_replicas = 4;
    /// Per-replica knobs (queue capacity, max_batch, pool threads,
    /// continuous batching, work stealing, degraded answers).
    EngineReplica::Options replica;
    /// Watchdog / self-healing knobs (set supervision.enabled = false to run
    /// without the background watchdog; ScanOnce still works).
    Supervisor::Options supervision;
    /// Shared prediction cache; 0 disables caching cluster-wide.
    size_t cache_capacity = 4096;
    /// Unused by the cache key (an exact digest, PredictionCache::KeyFor).
    /// servebench/ still reads it; it goes with the next benchmark change.
    int cache_wl_iterations = 2;
    /// Lock stripes of the shared cache. 0 = auto (2x replicas, so
    /// concurrent replicas rarely contend on a stripe).
    size_t cache_shards = 0;
    /// Fair-share admission arms when the aggregate backlog exceeds this
    /// fraction of aggregate queue capacity; >= 1 disables it (requests are
    /// only rejected when every queue is full).
    double fair_share_watermark = 1.0;
    /// Registry backing the shared ServeMetrics + ClusterMetrics +
    /// HealthMetrics; nullptr = private registry. Must outlive the cluster
    /// when injected.
    obs::MetricsRegistry* metrics_registry = nullptr;
  };

  ServeCluster(std::shared_ptr<ServableModel> model, const Options& options);
  /// Drains every queued request, then stops and joins all replicas. Any
  /// request stranded on a failed replica when shutdown begins is resolved
  /// with Unavailable — no promise is ever abandoned.
  ~ServeCluster();

  ServeCluster(const ServeCluster&) = delete;
  ServeCluster& operator=(const ServeCluster&) = delete;

  /// Enqueues one graph for classification on the least-loaded healthy
  /// replica.
  std::future<StatusOr<Prediction>> Submit(const graph::Graph& g,
                                           const RequestOptions& request);
  std::future<StatusOr<Prediction>> Submit(const graph::Graph& g) {
    return Submit(g, RequestOptions{});
  }

  /// Dynamic-graph serving, mirroring InferenceEngine: register a
  /// long-lived graph, then classify edge deltas against it. ClassifyDelta
  /// applies the delta with an O(1) per-edge key update, erases exactly the
  /// cache entry of the pre-delta structure (never Clear()), and on a cache
  /// miss runs the mutated graph through the normal dispatch path — logits
  /// are bit-identical to a fresh Submit of that graph.
  Status RegisterDynamicGraph(const std::string& id, graph::Graph g);
  Status UnregisterDynamicGraph(const std::string& id);
  StatusOr<Prediction> ClassifyDelta(
      const std::string& id, const std::vector<graph::EdgeUpdate>& updates,
      const RequestOptions& request = {});

  /// Blocks until every previously accepted request has been answered and
  /// no batch is in flight (including requests detached onto the supervisor
  /// by a replica failure). While a Drain is waiting, concurrent Submits
  /// are rejected with a typed retryable Unavailable instead of racing the
  /// drain predicate.
  void Drain();

  /// Atomically swaps the servable every subsequent batch runs against and
  /// clears the shared prediction cache (entries keyed under the old
  /// version are stale). In-flight batches finish on the version they
  /// pinned at dispatch — no request is dropped by a swap. This is the
  /// intended ModelRegistry::Subscribe callback target for hot reloads.
  void UpdateModel(std::shared_ptr<ServableModel> next);

  const ServeMetrics& metrics() const { return metrics_; }
  const ClusterMetrics& cluster_metrics() const { return cluster_metrics_; }
  const HealthMetrics& health_metrics() const { return health_metrics_; }
  const PredictionCache& cache() const { return cache_; }
  const DynamicGraphStore& dynamic_graphs() const { return dynamic_graphs_; }
  /// The servable currently receiving new batches (hot reload may retire it
  /// at any time; the shared_ptr keeps the returned version alive).
  std::shared_ptr<ServableModel> model() const { return servable_.Get(); }
  size_t num_replicas() const { return replicas_.size(); }
  const EngineReplica& replica(size_t i) const { return *replicas_[i]; }

  /// Number of Drain() calls currently blocked (test hook for the
  /// Drain-vs-Submit ordering contract).
  int draining() const;

  /// In-flight (accepted, unresolved) requests of one tenant. Test hook for
  /// the fair-share accounting; "" is the default tenant.
  int64_t tenant_inflight(const std::string& tenant) const;

  /// Test hook: route one request to a specific replica, bypassing
  /// join-shortest-queue and the health filter (fair-share admission still
  /// applies). Lets tests build skewed queues deterministically.
  std::future<StatusOr<Prediction>> SubmitToReplica(
      size_t replica, const graph::Graph& g, const RequestOptions& request);

  /// Test hooks into the supervision machinery: drive watchdog scans
  /// synchronously, flip replica health by hand.
  Supervisor& supervisor() { return *supervisor_; }
  EngineReplica* mutable_replica(size_t i) { return replicas_[i].get(); }

 private:
  /// Shared admission path; `target` < 0 means join-shortest-queue.
  /// `cache_key` empty = compute it here; `lookup_cache` false = skip the
  /// admission-time lookup but still warm the cache under the key (the
  /// ClassifyDelta miss path, which already looked the key up).
  std::future<StatusOr<Prediction>> SubmitInternal(
      const graph::Graph& g, const RequestOptions& request, int target,
      std::string cache_key = std::string(), bool lookup_cache = true);

  /// Fair-share verdict for `tenant` given the current backlog. Called with
  /// dispatch_.mu held.
  bool ShouldShedTenantLocked(const std::string& tenant) const;

  /// BatchPipeline::Hooks::on_complete: releases the request's tenant slot.
  void OnRequestComplete(const ServeRequest& request);

  ServableHandle servable_;
  Options options_;
  ServeMetrics metrics_;
  ClusterMetrics cluster_metrics_;
  HealthMetrics health_metrics_;
  PredictionCache cache_;
  /// Registered graphs for ClassifyDelta (their keys equal Submit's
  /// PredictionCache::KeyFor of the same graph).
  DynamicGraphStore dynamic_graphs_;
  mutable DispatchState dispatch_;  // mutable: const accessors lock its mu

  /// Accepted-but-unresolved request counts per tenant. Guarded by
  /// dispatch_.mu (updated at admission and from on_complete).
  mutable std::unordered_map<std::string, int64_t> tenant_inflight_;

  /// Rotates the join-shortest-queue tie-break so equal-depth replicas
  /// receive round-robin traffic instead of all landing on replica 0.
  std::atomic<size_t> rr_cursor_{0};

  std::vector<std::unique_ptr<EngineReplica>> replicas_;
  std::unique_ptr<Supervisor> supervisor_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_CLUSTER_H_
