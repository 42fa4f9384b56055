// The replica layer of the serving stack: the staged batch pipeline and the
// worker replica that runs it behind a bounded per-replica queue.
//
// BatchPipeline runs one batch in explicit stages so the replica can
// interleave work between them:
//
//   Begin       pin the current servable (hot reload swaps between batches,
//               never inside one), snapshot dispatch time, record queue
//               depth, arm the whole-batch fault ("serve.engine.batch")
//   Preprocess  feature map -> alignment -> SparseInput for every not-yet-
//               preprocessed request, sharded on the pipeline's ThreadPool
//   Admit       continuous batching: append newly arrived requests to the
//               in-flight batch (another Preprocess covers just them)
//   Forward     batched compiled forward over survivors, sharded, one
//               kept scratch per shard ("serve.forward" fault applies per
//               item)
//   Complete    fulfill every promise exactly once (degrading model-path
//               failures when enabled), warm the cache, record metrics
//
// EngineReplica interposes an Admit between Preprocess and Forward, which is
// continuous batching: a replica never waits out a batching window; it
// starts on whatever is queued and absorbs arrivals into the batch it is
// already running.
//
// EngineReplica owns a bounded deque (its slice of the cluster's admission
// capacity), a private ThreadPool (ThreadPool::Wait is a whole-pool
// barrier, so replicas cannot share one), and a worker thread that pops its
// own queue FIFO. The pool is caller-runs: the worker, blocked in Wait(),
// runs the batch's preprocessing and forward tasks itself, so a one-thread
// replica executes its whole batch on its worker with no handoff. When
// idle, the worker steals the front half of the longest
// *healthy* sibling queue, so a burst routed to one replica is drained by
// all of them. Replicas coordinate through DispatchState: one mutex/cv pair
// for wakeup and drain, plus the pending/active/detached counts that make
// shutdown and Drain race-free.
//
// Self-healing support: every popped batch is parked in an "in-flight slot"
// before execution. The worker claims it (kParked -> kExecuting) just
// before running the pipeline; the cluster's Supervisor confiscates it
// (kParked -> empty) when the watchdog declares the worker hung or dead.
// The slot transition is the exactly-once handoff — whichever side wins
// owns every promise in the batch, so a recovered request is never answered
// twice. The "serve.replica.hang" fail point parks the worker on a
// condition variable (a restartable simulated stall) and
// "serve.replica.crash" makes the worker thread exit, both with the batch
// still parked for the supervisor to recover.
#ifndef DEEPMAP_SERVE_REPLICA_H_
#define DEEPMAP_SERVE_REPLICA_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "graph/graph.h"
#include "serve/compiled_model.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/prediction_cache.h"

namespace deepmap::serve {

/// One queued classification request.
struct ServeRequest {
  graph::Graph graph;
  std::string cache_key;  // empty when caching is disabled
  /// Fair-share accounting bucket (ServeCluster); "" = the default tenant.
  std::string tenant;
  std::promise<StatusOr<Prediction>> promise;
  std::chrono::steady_clock::time_point enqueue_time;
  /// Absolute deadline; max() means none. Checked at admission, before
  /// preprocessing, and before the forward pass.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Times this request was recovered from a failed (hung/crashed) replica.
  /// The cluster Supervisor increments it on every re-dispatch; past
  /// Supervisor::Options::max_request_failures the request is quarantined
  /// with a degraded answer instead of being handed to another replica.
  int failures = 0;
};

/// Called per request after its promise is resolved; feeds the cluster's
/// per-tenant in-flight accounting. May be empty.
using RequestCompleteFn = std::function<void(const ServeRequest& request)>;

/// Staged execution of one batch of requests against the current servable
/// of a ServableHandle. Thread-compatible: one State is owned by one
/// thread; the pipeline object itself holds no per-batch state (only the
/// forward workspaces it reuses) and may back any number of sequential
/// batches.
class BatchPipeline {
 public:
  /// All pointers must outlive the pipeline. `cache` may be null (caching
  /// disabled); `pool` is the preprocessing/forward sharding pool.
  BatchPipeline(ServableHandle* servable, ThreadPool* pool,
                PredictionCache* cache, ServeMetrics* metrics,
                bool enable_degraded, RequestCompleteFn on_complete);

  /// Per-batch working set. `batch[0, preprocessed)` has been through
  /// Preprocess; parallel arrays are indexed like `batch`.
  struct State {
    std::vector<ServeRequest> batch;
    /// The servable pinned at Begin. Every stage of this batch — including
    /// continuous-batching admits — runs against this version, even if a
    /// hot reload swaps the handle mid-batch.
    std::shared_ptr<ServableModel> model;
    std::chrono::steady_clock::time_point dispatch_time;
    Status batch_fault;  // whole-batch injected fault, set at Begin
    std::vector<Status> statuses;
    std::vector<const char*> deadline_stage;
    std::vector<SparseInput> inputs;
    std::vector<double> preprocess_us;
    std::vector<Prediction> predictions;
    std::vector<double> forward_us;
    size_t preprocessed = 0;
  };

  void Begin(State* state, std::vector<ServeRequest>&& batch,
             size_t queue_depth_after);
  void Preprocess(State* state);
  /// Appends `more` to the in-flight batch; the next Preprocess covers
  /// exactly the appended requests. Must be called before Forward.
  void Admit(State* state, std::vector<ServeRequest>&& more);
  void Forward(State* state);
  void Complete(State* state);

 private:
  ServableHandle* servable_;
  ThreadPool* pool_;
  PredictionCache* cache_;  // null = caching disabled
  ServeMetrics* metrics_;
  bool enable_degraded_;
  RequestCompleteFn on_complete_;
  /// One forward workspace per shard (at most one shard per pool thread),
  /// kept for the pipeline's lifetime so a batch allocates none.
  std::vector<ForwardScratch> forward_scratch_;
};

/// Dispatchability of one replica. Anything but kHealthy is skipped by
/// join-shortest-queue dispatch and by work stealing: the supervisor owns
/// an unhealthy replica's backlog until it restarts the worker.
enum class ReplicaHealth : int { kHealthy = 0, kUnhealthy = 1 };

/// Coordination state shared by every replica of one cluster.
struct DispatchState {
  std::mutex mu;
  /// Signaled on enqueue and at stop; replicas wait here when idle.
  std::condition_variable work_cv;
  /// Signaled when pending, active_batches and detached all reach zero.
  std::condition_variable drain_cv;
  /// Requests enqueued on some replica queue and not yet popped.
  int64_t pending = 0;
  /// Batches popped and currently inside the pipeline.
  int64_t active_batches = 0;
  /// Requests confiscated from a failed replica and held by the supervisor
  /// — neither queued nor in a batch, but not yet re-enqueued or resolved.
  /// Drain() must wait for them too.
  int64_t detached = 0;
  /// Number of Drain() calls currently waiting. While nonzero, Submit
  /// rejects with a typed retryable Unavailable instead of racing the
  /// pending/active accounting the drain predicate reads.
  int draining = 0;
  bool stopping = false;
};

/// One serving replica: bounded queue + worker thread + private
/// caller-runs pool.
class EngineReplica {
 public:
  struct Options {
    int max_batch = 32;
    size_t queue_capacity = 256;
    /// Threads that run the replica's preprocessing/forward tasks, the
    /// replica's worker included (it runs tasks while it waits on them); the
    /// private pool spawns num_threads - 1 helpers. Sets the forward
    /// sharding too.
    size_t num_threads = 1;
    /// Admit queued arrivals into the in-flight batch after its preprocess
    /// stage (continuous batching). Off = plain pop-and-run batches.
    bool continuous_batching = true;
    /// Steal from the longest healthy sibling queue when the own queue is
    /// empty.
    bool enable_work_stealing = true;
    /// Forwarded to the pipeline: answer model-path failures from the cache
    /// (stale-ok) or the fallback prior instead of erroring.
    bool enable_degraded = false;
  };

  /// `cluster_metrics` may be null (no cluster-level accounting). All
  /// pointers must outlive the replica. The worker thread starts in
  /// Start(), not here, so the cluster can finish wiring siblings first.
  EngineReplica(size_t index, const Options& options, ServableHandle* servable,
                PredictionCache* cache, ServeMetrics* metrics,
                ClusterMetrics* cluster_metrics, DispatchState* dispatch,
                RequestCompleteFn on_complete);
  ~EngineReplica();

  EngineReplica(const EngineReplica&) = delete;
  EngineReplica& operator=(const EngineReplica&) = delete;

  /// Launches the worker thread. `siblings` is the cluster's replica array
  /// (this replica included; it skips itself when stealing) and must stay
  /// valid until Join().
  void Start(const std::vector<std::unique_ptr<EngineReplica>>* siblings);

  /// Joins the worker thread. The caller must first set
  /// DispatchState::stopping under its mutex, notify work_cv, and
  /// AbandonStall() so a simulated hang cannot block the join.
  void Join();

  /// Bounded push; returns false (leaving the request untouched) when the
  /// queue is at capacity. The caller updates DispatchState::pending and
  /// notifies work_cv — enqueue and wakeup are split so the dispatcher can
  /// batch them.
  bool TryEnqueue(ServeRequest&& request);

  /// Queue depth (relaxed; the dispatcher's join-shortest-queue signal).
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }

  size_t index() const { return index_; }
  const Options& options() const { return options_; }

  // --- Supervision surface (used by serve::Supervisor and tests) ---------

  ReplicaHealth health() const {
    return static_cast<ReplicaHealth>(
        health_.load(std::memory_order_acquire));
  }
  /// Supervisor-owned transition (also a test hook): dispatch and stealing
  /// skip any replica not kHealthy.
  void set_health(ReplicaHealth health) {
    health_.store(static_cast<int>(health), std::memory_order_release);
  }

  /// True once the worker thread has returned (simulated crash, abandoned
  /// stall, or normal shutdown). The watchdog's crash signal.
  bool worker_exited() const {
    return worker_exited_.load(std::memory_order_acquire);
  }

  /// Monotone progress counter, bumped after every executed batch.
  int64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }

  /// How long the in-flight batch has been parked without the worker
  /// claiming it; zero when nothing is parked. In normal operation the
  /// parked window is microseconds (pop -> claim); a stalled or dead worker
  /// leaves it growing — the watchdog's hang signal.
  std::chrono::microseconds parked_for() const;

  /// Atomically takes the parked in-flight batch, or returns empty if the
  /// worker already claimed it (or nothing was parked). The caller now owns
  /// every promise in the returned batch — and must repair the dispatch
  /// accounting (one active_batches decrement per non-empty confiscation).
  std::vector<ServeRequest> ConfiscateParkedBatch();

  /// Pops every queued request (supervisor drain of a failed replica, or
  /// the cluster's shutdown sweep). Caller adjusts DispatchState::pending.
  std::vector<ServeRequest> DrainQueue();

  /// Wakes a worker stalled on the "serve.replica.hang" fail point; the
  /// woken worker exits (after finishing its batch if it still owns one) so
  /// Restart() or Join() can proceed. Safe to call when no stall is active.
  void AbandonStall();

  /// Joins the exited worker thread and launches a fresh one. Precondition:
  /// worker_exited(). The new worker immediately serves the queue again.
  void Restart();

 private:
  /// Ownership of the popped-but-not-yet-executed batch. The kParked ->
  /// kExecuting (worker) vs kParked -> kNone (supervisor confiscation)
  /// transition is the exactly-once handoff.
  enum class InflightState { kNone, kParked, kExecuting };

  void Loop();
  void ProcessBatch(std::vector<ServeRequest>&& batch);
  /// Pops up to `max` requests from the front of the own queue.
  std::vector<ServeRequest> PopOwn(size_t max);
  /// Steals the front half (capped at max_batch) of the longest healthy
  /// sibling queue; empty when there is nothing to steal.
  std::vector<ServeRequest> Steal();
  /// Any healthy sibling with queued work (the steal-eligibility signal the
  /// idle-wait predicate uses; an unhealthy sibling's backlog belongs to
  /// the supervisor and must not keep workers spinning).
  bool HasStealableBacklog() const;
  /// Parks on stall_cv_ until AbandonStall() ("serve.replica.hang").
  void SimulateStall();

  const size_t index_;
  const Options options_;
  ServableHandle* servable_;
  ServeMetrics* metrics_;
  ClusterMetrics* cluster_metrics_;
  DispatchState* dispatch_;
  const std::vector<std::unique_ptr<EngineReplica>>* siblings_ = nullptr;
  const std::string span_name_;  // "serve.replica<i>.batch"

  ThreadPool pool_;
  BatchPipeline pipeline_;

  mutable std::mutex mu_;  // guards queue_
  std::deque<ServeRequest> queue_;
  std::atomic<size_t> depth_{0};

  std::atomic<int> health_{static_cast<int>(ReplicaHealth::kHealthy)};
  std::atomic<bool> worker_exited_{false};
  std::atomic<int64_t> heartbeat_{0};

  /// In-flight slot: the popped batch between dequeue and execution.
  mutable std::mutex inflight_mu_;
  InflightState inflight_state_ = InflightState::kNone;
  std::vector<ServeRequest> inflight_batch_;
  std::chrono::steady_clock::time_point parked_since_;

  /// Simulated-hang machinery ("serve.replica.hang").
  std::mutex stall_mu_;
  std::condition_variable stall_cv_;
  bool stall_abandoned_ = false;

  std::thread worker_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_REPLICA_H_
