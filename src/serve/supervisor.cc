#include "serve/supervisor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace deepmap::serve {

Supervisor::Supervisor(
    const Options& options,
    const std::vector<std::unique_ptr<EngineReplica>>* replicas,
    DispatchState* dispatch, ServableHandle* servable, ServeMetrics* metrics,
    HealthMetrics* health,
    RequestCompleteFn on_complete)
    : options_(options),
      replicas_(replicas),
      dispatch_(dispatch),
      servable_(servable),
      metrics_(metrics),
      health_(health),
      on_complete_(std::move(on_complete)),
      watches_(replicas->size()) {
  DEEPMAP_CHECK(replicas_ != nullptr);
  DEEPMAP_CHECK(dispatch_ != nullptr);
  DEEPMAP_CHECK(servable_ != nullptr);
  DEEPMAP_CHECK(metrics_ != nullptr);
  DEEPMAP_CHECK(health_ != nullptr);
  DEEPMAP_CHECK_GE(options_.max_request_failures, 0);
}

Supervisor::~Supervisor() { Stop(); }

void Supervisor::Start() {
  if (!options_.enabled) return;
  DEEPMAP_CHECK(!thread_.joinable());
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { Run(); });
}

void Supervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
    stop_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void Supervisor::Run() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      stop_cv_.wait_for(lock, options_.check_interval,
                        [this] { return stop_; });
      if (stop_) return;
    }
    ScanOnce();
  }
}

void Supervisor::ScanOnce() {
  std::lock_guard<std::mutex> scan_lock(scan_mu_);
  {
    // A shutting-down cluster retires its workers on purpose; their exits
    // are not crashes and their backlog is the destructor sweep's problem.
    std::lock_guard<std::mutex> lock(dispatch_->mu);
    if (dispatch_->stopping) return;
  }
  for (size_t i = 0; i < replicas_->size(); ++i) {
    ScanReplica((*replicas_)[i].get(), &watches_[i]);
  }
}

void Supervisor::ScanReplica(EngineReplica* replica, Watch* watch) {
  const auto now = std::chrono::steady_clock::now();

  if (watch->awaiting_restart) {
    // Backoff window. The restart additionally waits for the failed worker
    // thread to actually exit (a hung worker only exits once its stall is
    // abandoned), so Restart()'s join cannot block the scan loop.
    if (now < watch->restart_at || !replica->worker_exited()) return;
    replica->Restart();
    replica->set_health(ReplicaHealth::kHealthy);
    watch->awaiting_restart = false;
    health_->AddUnhealthy(-1);
    health_->RecordRestart(replica->index());
    DEEPMAP_LOG(Info) << "supervisor: restarted replica " << replica->index()
                      << " (failure #" << watch->consecutive_failures << ")";
    // The rejoined replica must notice any backlog that piled up on its
    // siblings while it was down.
    std::lock_guard<std::mutex> lock(dispatch_->mu);
    dispatch_->work_cv.notify_all();
    return;
  }

  // Failure detection. Crash: the worker thread exited while the cluster is
  // live. Hang: the in-flight batch sat parked past the timeout — verified
  // by the confiscation itself, so a worker that claims the batch between
  // the timeout check and the confiscation produces a stand-down, not a
  // false positive.
  const bool crashed = replica->worker_exited();
  std::vector<ServeRequest> recovered;
  if (crashed) {
    recovered = replica->ConfiscateParkedBatch();
  } else {
    const auto parked = replica->parked_for();
    if (parked < options_.hang_timeout) return;
    recovered = replica->ConfiscateParkedBatch();
    if (recovered.empty()) return;  // worker claimed it first; stand down
  }
  const bool had_batch = !recovered.empty();

  replica->set_health(ReplicaHealth::kUnhealthy);
  health_->AddUnhealthy(1);
  if (crashed) {
    health_->RecordCrash();
  } else {
    health_->RecordHang();
  }
  // Release a worker parked on the simulated stall: it will find its batch
  // confiscated and exit, satisfying the worker_exited() restart gate.
  replica->AbandonStall();

  std::vector<ServeRequest> queued = replica->DrainQueue();
  const int64_t confiscated = static_cast<int64_t>(recovered.size());
  const int64_t dequeued = static_cast<int64_t>(queued.size());
  {
    std::lock_guard<std::mutex> lock(dispatch_->mu);
    // The confiscated batch was counted as an active batch by the worker
    // that popped it; it will never complete, so the count is repaired
    // here. The drained queue entries were still `pending`. Both move into
    // `detached` until Redispatch re-enqueues or resolves them.
    if (had_batch) --dispatch_->active_batches;
    dispatch_->pending -= dequeued;
    dispatch_->detached += confiscated + dequeued;
  }
  for (ServeRequest& r : queued) recovered.push_back(std::move(r));

  ++watch->consecutive_failures;
  DEEPMAP_LOG(Warning) << "supervisor: replica " << replica->index()
                       << (crashed ? " crashed" : " hung") << "; recovering "
                       << recovered.size() << " request(s), restart in "
                       << BackoffFor(watch->consecutive_failures).count()
                       << "ms";
  Redispatch(std::move(recovered), replica->index());
  watch->awaiting_restart = true;
  watch->restart_at = now + BackoffFor(watch->consecutive_failures);
}

void Supervisor::Redispatch(std::vector<ServeRequest>&& recovered,
                            size_t from) {
  std::vector<ServeRequest> quarantined;
  std::vector<ServeRequest> rejected;
  int64_t redispatched = 0;
  {
    std::lock_guard<std::mutex> lock(dispatch_->mu);
    for (ServeRequest& request : recovered) {
      ++request.failures;
      if (request.failures > options_.max_request_failures) {
        quarantined.push_back(std::move(request));
        continue;
      }
      // Shortest healthy queue, the failed replica excluded (it is already
      // kUnhealthy, but exclude by index too for clarity).
      EngineReplica* target = nullptr;
      size_t shortest = std::numeric_limits<size_t>::max();
      for (const auto& sibling : *replicas_) {
        if (sibling->index() == from) continue;
        if (sibling->health() != ReplicaHealth::kHealthy) continue;
        const size_t d = sibling->depth();
        if (d < shortest) {
          shortest = d;
          target = sibling.get();
        }
      }
      if (target != nullptr && target->TryEnqueue(std::move(request))) {
        ++dispatch_->pending;
        --dispatch_->detached;
        ++redispatched;
      } else {
        // TryEnqueue leaves the request untouched on failure, so it is
        // still ours to reject.
        rejected.push_back(std::move(request));
      }
    }
    if (redispatched > 0) {
      // Counted before any worker can answer one of them: a caller whose
      // future resolves must already see the re-dispatch.
      health_->RecordRedispatched(redispatched);
      dispatch_->work_cv.notify_all();
    }
  }

  // Quarantines and rejections are resolved OUTSIDE the dispatch lock: the
  // completion hook re-enters it for per-tenant accounting.
  int64_t resolved = 0;
  if (!quarantined.empty()) {
    const std::shared_ptr<ServableModel> model = servable_->Get();
    for (ServeRequest& request : quarantined) {
      health_->RecordQuarantined();
      metrics_->RecordDegradedFallback();
      request.promise.set_value(model->fallback_prediction());
      if (on_complete_) on_complete_(request);
      ++resolved;
    }
  }
  for (ServeRequest& request : rejected) {
    metrics_->RecordRejected();
    request.promise.set_value(StatusOr<Prediction>(Status::ResourceExhausted(
        "no healthy replica available to re-dispatch request")));
    if (on_complete_) on_complete_(request);
    ++resolved;
  }
  if (resolved > 0) {
    std::lock_guard<std::mutex> lock(dispatch_->mu);
    dispatch_->detached -= resolved;
    if (dispatch_->pending == 0 && dispatch_->active_batches == 0 &&
        dispatch_->detached == 0) {
      dispatch_->drain_cv.notify_all();
    }
  }
}

std::chrono::milliseconds Supervisor::BackoffFor(
    int consecutive_failures) const {
  const double factor =
      std::pow(2.0, std::max(0, consecutive_failures - 1));
  const double raw = static_cast<double>(
                         options_.restart_backoff_initial.count()) *
                     factor;
  const double capped = std::min(
      raw, static_cast<double>(options_.restart_backoff_max.count()));
  return std::chrono::milliseconds(static_cast<int64_t>(capped));
}

}  // namespace deepmap::serve
