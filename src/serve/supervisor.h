// Replica supervision: the watchdog that turns EngineReplica's in-flight
// slot into a self-healing cluster.
//
// A background thread scans every replica on a fixed interval. Two failure
// signals exist:
//
//   crash  the worker thread exited while the cluster is running
//          (worker_exited() — the "serve.replica.crash" fail point, or any
//          future real crash-to-exit path)
//   hang   the popped batch has sat unclaimed in the in-flight slot past
//          hang_timeout ("serve.replica.hang" parks the worker there)
//
// On either verdict the supervisor (1) marks the replica UNHEALTHY so
// dispatch and work stealing route around it, (2) confiscates the parked
// batch and drains the queue — repairing the cluster's pending/active
// accounting and moving every recovered request into the `detached` count
// that Drain() waits on, (3) re-dispatches the recovered requests to the
// shortest healthy siblings, and (4) schedules a worker restart with
// exponential backoff. Confiscation is the exactly-once guarantee: the
// kParked -> confiscated transition races the worker's kParked -> kExecuting
// claim under one mutex, so exactly one side ever owns a request's promise —
// a false hang alarm (the worker claimed the batch between the timeout check
// and the confiscation) simply finds the slot empty and stands down.
//
// Requests recovered more than Options::max_request_failures times are
// poison pills: instead of riding to yet another replica (and likely killing
// it too), they are quarantined — answered immediately with the servable's
// degraded fallback prediction. Requests with no healthy sibling left are
// rejected with ResourceExhausted.
//
// Everything the watchdog does is also exposed synchronously via ScanOnce()
// so tests (and the chaos bench) can drive detection deterministically
// instead of sleeping.
#ifndef DEEPMAP_SERVE_SUPERVISOR_H_
#define DEEPMAP_SERVE_SUPERVISOR_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/replica.h"

namespace deepmap::serve {

/// Watchdog + recovery policy for one ServeCluster's replica set.
class Supervisor {
 public:
  struct Options {
    /// Master switch; a disabled supervisor never starts its thread (tests
    /// that orchestrate failures by hand turn it off).
    bool enabled = true;
    /// Watchdog scan period.
    std::chrono::milliseconds check_interval{2};
    /// A batch parked unclaimed past this long means the worker is hung.
    /// Must comfortably exceed the worst-case pop -> claim window (normally
    /// microseconds; fail-point sync parks happen *after* the claim, so
    /// they do not count against it).
    std::chrono::milliseconds hang_timeout{200};
    /// A request recovered from more than this many failed replicas is
    /// quarantined with a degraded answer instead of re-dispatched.
    int max_request_failures = 2;
    /// Exponential restart backoff: initial * 2^(failures-1), capped at
    /// max.
    std::chrono::milliseconds restart_backoff_initial{2};
    std::chrono::milliseconds restart_backoff_max{500};
  };

  /// All pointers must outlive the supervisor. `on_complete` is invoked
  /// (outside any dispatch lock) for every request the supervisor resolves
  /// itself — quarantines and no-healthy-replica rejections — mirroring the
  /// pipeline's completion hook so per-tenant accounting stays exact.
  Supervisor(const Options& options,
             const std::vector<std::unique_ptr<EngineReplica>>* replicas,
             DispatchState* dispatch, ServableHandle* servable,
             ServeMetrics* metrics, HealthMetrics* health,
             RequestCompleteFn on_complete);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Launches the watchdog thread (no-op when !options.enabled).
  void Start();
  /// Stops and joins the watchdog thread. Idempotent. Must be called before
  /// the replica set is torn down.
  void Stop();

  /// One synchronous watchdog pass over every replica: detect failures,
  /// recover + re-dispatch their requests, restart replicas whose backoff
  /// has elapsed. Serialized against the background thread, so tests may
  /// call it concurrently with a running supervisor.
  void ScanOnce();

  const Options& options() const { return options_; }

 private:
  /// Per-replica supervision record (supervisor-thread-private, guarded by
  /// scan_mu_ for the ScanOnce test entry point).
  struct Watch {
    int consecutive_failures = 0;
    bool awaiting_restart = false;
    std::chrono::steady_clock::time_point restart_at;
  };

  void Run();
  /// Handles one replica within a scan; returns through `watch`.
  void ScanReplica(EngineReplica* replica, Watch* watch);
  /// Re-dispatches `recovered` (already counted in dispatch->detached) away
  /// from replica `from`: healthy shortest-queue siblings for fresh
  /// requests, quarantine for poison pills, rejection when no healthy
  /// replica remains.
  void Redispatch(std::vector<ServeRequest>&& recovered, size_t from);
  std::chrono::milliseconds BackoffFor(int consecutive_failures) const;

  const Options options_;
  const std::vector<std::unique_ptr<EngineReplica>>* replicas_;
  DispatchState* dispatch_;
  ServableHandle* servable_;
  ServeMetrics* metrics_;
  HealthMetrics* health_;
  RequestCompleteFn on_complete_;

  std::mutex scan_mu_;  // serializes ScanOnce vs the background thread
  std::vector<Watch> watches_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_SUPERVISOR_H_
