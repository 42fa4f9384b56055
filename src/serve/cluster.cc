#include "serve/cluster.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace deepmap::serve {
namespace {

double MicrosSince(std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

bool Expired(std::chrono::steady_clock::time_point deadline) {
  return deadline != std::chrono::steady_clock::time_point::max() &&
         std::chrono::steady_clock::now() >= deadline;
}

Status DeadlineError(const char* stage) {
  return Status::DeadlineExceeded(
      std::string("request deadline expired (stage=") + stage + ")");
}

std::future<StatusOr<Prediction>> Rejected(Status status) {
  std::promise<StatusOr<Prediction>> rejected;
  std::future<StatusOr<Prediction>> f = rejected.get_future();
  rejected.set_value(StatusOr<Prediction>(std::move(status)));
  return f;
}

}  // namespace

ServeCluster::ServeCluster(std::shared_ptr<ServableModel> model,
                           const Options& options)
    : servable_(std::move(model)),
      options_(options),
      metrics_(options.metrics_registry),
      cluster_metrics_(&metrics_.registry(),
                       std::max<size_t>(options.num_replicas, 1)),
      health_metrics_(&metrics_.registry(),
                      std::max<size_t>(options.num_replicas, 1)),
      cache_(options.cache_capacity,
             2 * std::max<size_t>(options.num_replicas, 1),
             &metrics_.registry()),
      dynamic_graphs_(options.cache_wl_iterations) {
  options_.num_replicas = std::max<size_t>(options_.num_replicas, 1);
  const std::shared_ptr<ServableModel> initial = servable_.Get();
  DEEPMAP_LOG(Info) << "ServeCluster serving model '" << initial->name()
                    << "' v" << initial->version() << " on "
                    << options_.num_replicas << " replica(s)";
  const RequestCompleteFn on_complete = [this](const ServeRequest& r) {
    OnRequestComplete(r);
  };
  replicas_.reserve(options_.num_replicas);
  for (size_t i = 0; i < options_.num_replicas; ++i) {
    replicas_.push_back(std::make_unique<EngineReplica>(
        i, options_.replica, &servable_, &cache_, &metrics_,
        &cluster_metrics_, &dispatch_, on_complete));
  }
  // Two-phase start: every replica must exist before any worker runs, since
  // idle workers scan the sibling array for steal victims.
  for (auto& replica : replicas_) replica->Start(&replicas_);
  supervisor_ = std::make_unique<Supervisor>(
      options_.supervision, &replicas_, &dispatch_, &servable_, &metrics_,
      &health_metrics_, on_complete);
  supervisor_->Start();
}

ServeCluster::~ServeCluster() {
  // Stop the watchdog first: a scan racing shutdown could confiscate a
  // batch from a worker that is merely draining, or restart one that is
  // exiting on purpose.
  supervisor_->Stop();
  {
    std::lock_guard<std::mutex> lock(dispatch_.mu);
    dispatch_.stopping = true;
  }
  // Workers drain their queues (and, with stealing, each other's) before
  // exiting, so every accepted promise resolves. A worker parked on a
  // simulated stall is released; it finishes its batch (if the supervisor
  // never confiscated it) and exits.
  dispatch_.work_cv.notify_all();
  for (auto& replica : replicas_) replica->AbandonStall();
  for (auto& replica : replicas_) replica->Join();
  // Sweep: requests stranded on replicas that failed too close to shutdown
  // for the supervisor to recover (unhealthy queues are skipped by both
  // dispatch and stealing, so nothing else will answer them).
  for (auto& replica : replicas_) {
    std::vector<ServeRequest> stranded = replica->ConfiscateParkedBatch();
    for (ServeRequest& r : replica->DrainQueue()) {
      stranded.push_back(std::move(r));
    }
    for (ServeRequest& r : stranded) {
      metrics_.RecordOutcome(ServeOutcome::kError);
      r.promise.set_value(StatusOr<Prediction>(Status::Unavailable(
          "replica failed; cluster shut down before request could be "
          "re-dispatched")));
      OnRequestComplete(r);
    }
  }
}

void ServeCluster::Drain() {
  std::unique_lock<std::mutex> lock(dispatch_.mu);
  ++dispatch_.draining;
  dispatch_.drain_cv.wait(lock, [this] {
    return dispatch_.pending == 0 && dispatch_.active_batches == 0 &&
           dispatch_.detached == 0;
  });
  --dispatch_.draining;
}

int ServeCluster::draining() const {
  std::lock_guard<std::mutex> lock(dispatch_.mu);
  return dispatch_.draining;
}

void ServeCluster::UpdateModel(std::shared_ptr<ServableModel> next) {
  DEEPMAP_CHECK(next != nullptr);
  const int new_version = next->version();
  const std::shared_ptr<ServableModel> old = servable_.Swap(std::move(next));
  // Every cached prediction was computed by the retired version; serving it
  // as a fresh answer for the new one would silently mix model versions.
  cache_.Clear();
  health_metrics_.RecordModelSwap();
  DEEPMAP_LOG(Info) << "ServeCluster: hot-swapped model '" << old->name()
                    << "' v" << old->version() << " -> v" << new_version
                    << " (cache cleared)";
}

int64_t ServeCluster::tenant_inflight(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(dispatch_.mu);
  auto it = tenant_inflight_.find(tenant);
  return it == tenant_inflight_.end() ? 0 : it->second;
}

std::future<StatusOr<Prediction>> ServeCluster::Submit(
    const graph::Graph& g, const RequestOptions& request) {
  return SubmitInternal(g, request, /*target=*/-1);
}

Status ServeCluster::RegisterDynamicGraph(const std::string& id,
                                          graph::Graph g) {
  return dynamic_graphs_.Register(id, std::move(g));
}

Status ServeCluster::UnregisterDynamicGraph(const std::string& id) {
  return dynamic_graphs_.Unregister(id);
}

StatusOr<Prediction> ServeCluster::ClassifyDelta(
    const std::string& id, const std::vector<graph::EdgeUpdate>& updates,
    const RequestOptions& request) {
  DEEPMAP_TRACE_SPAN("serve.cluster.classify_delta", "serve");
  const auto start = std::chrono::steady_clock::now();
  if (request.deadline.has_value() && Expired(*request.deadline)) {
    metrics_.RecordDeadlineExceeded("admission");
    return DeadlineError("admission");
  }
  StatusOr<DeltaResult> delta = dynamic_graphs_.ApplyDelta(id, updates);
  if (!delta.ok()) return delta.status();
  metrics_.RecordDynamicUpdate(delta.value().applied);
  // The pre-delta structure's entry stays: its key is an exact digest and
  // its answer a pure function of that graph, so it is still correct, and a
  // delta that undoes this one hits it. The LRU capacity bounds the cache.
  if (options_.cache_capacity > 0) {
    if (std::optional<Prediction> hit = cache_.Lookup(delta.value().new_key)) {
      metrics_.RecordDynamicIncrementalHit();
      RequestTiming timing;
      timing.cache_hit = true;
      timing.total_us = MicrosSince(start, std::chrono::steady_clock::now());
      metrics_.RecordRequest(timing);
      metrics_.RecordOutcome(ServeOutcome::kOk);
      return std::move(*hit);
    }
  }
  // Miss: normal dispatch under the key the store computed, with the
  // snapshot the store already copied out moved into the request. The
  // lookup above is the one the cache counters should see; there is no
  // second. Its latency counts from entry, like a hit's: the delta apply,
  // the snapshot copy and the lookup are part of the request.
  metrics_.RecordDynamicFullRecompute();
  return Dispatch(std::move(delta.value().graph), request, /*target=*/-1,
                  std::move(delta.value().new_key), start)
      .get();
}

std::future<StatusOr<Prediction>> ServeCluster::SubmitToReplica(
    size_t replica, const graph::Graph& g, const RequestOptions& request) {
  DEEPMAP_CHECK_LT(replica, replicas_.size());
  return SubmitInternal(g, request, static_cast<int>(replica));
}

bool ServeCluster::ShouldShedTenantLocked(const std::string& tenant) const {
  if (options_.fair_share_watermark >= 1.0) return false;
  const double capacity =
      static_cast<double>(replicas_.size()) *
      static_cast<double>(options_.replica.queue_capacity);
  if (capacity <= 0.0) return false;
  if (static_cast<double>(dispatch_.pending) <=
      options_.fair_share_watermark * capacity) {
    return false;  // backlog below the watermark: everyone is admitted
  }
  // Armed. A tenant's fair share is an equal split of the cluster's queue
  // capacity across the tenants currently holding requests (this one
  // included). Tenants below their share — in particular any tenant with
  // nothing in flight — are always admitted, so a flood from one tenant
  // cannot lock the others out.
  auto self = tenant_inflight_.find(tenant);
  const int64_t mine =
      self == tenant_inflight_.end() ? 0 : self->second;
  size_t active = mine > 0 ? 0 : 1;  // count self even when idle
  for (const auto& [name, count] : tenant_inflight_) {
    if (count > 0) ++active;
  }
  const double fair_share = capacity / static_cast<double>(active);
  return static_cast<double>(mine) >= fair_share;
}

void ServeCluster::OnRequestComplete(const ServeRequest& request) {
  std::lock_guard<std::mutex> lock(dispatch_.mu);
  auto it = tenant_inflight_.find(request.tenant);
  if (it == tenant_inflight_.end()) return;
  if (--it->second <= 0) tenant_inflight_.erase(it);
}

std::future<StatusOr<Prediction>> ServeCluster::SubmitInternal(
    const graph::Graph& g, const RequestOptions& request, int target) {
  DEEPMAP_TRACE_SPAN("serve.cluster.submit", "serve");
  const auto start = std::chrono::steady_clock::now();

  // Stage "admission": a request that arrives already expired never costs a
  // hash, a queue slot, or a batch.
  if (request.deadline.has_value() && Expired(*request.deadline)) {
    metrics_.RecordDeadlineExceeded("admission");
    return Rejected(DeadlineError("admission"));
  }

  std::string cache_key;
  if (options_.cache_capacity > 0) {
    cache_key = PredictionCache::KeyFor(g, options_.cache_wl_iterations);
    if (std::optional<Prediction> hit = cache_.Lookup(cache_key)) {
      RequestTiming timing;
      timing.cache_hit = true;
      timing.total_us = MicrosSince(start, std::chrono::steady_clock::now());
      metrics_.RecordRequest(timing);
      metrics_.RecordOutcome(ServeOutcome::kOk);
      std::promise<StatusOr<Prediction>> answered;
      answered.set_value(std::move(*hit));
      return answered.get_future();
    }
  }
  // A miss: the request's one copy of the caller's graph.
  return Dispatch(g, request, target, std::move(cache_key), start);
}

std::future<StatusOr<Prediction>> ServeCluster::Dispatch(
    graph::Graph g, const RequestOptions& request, int target,
    std::string cache_key, std::chrono::steady_clock::time_point start) {
  ServeRequest queued;
  queued.graph = std::move(g);
  queued.cache_key = std::move(cache_key);
  queued.enqueue_time = start;
  queued.tenant = request.tenant;
  if (request.deadline.has_value()) queued.deadline = *request.deadline;
  std::future<StatusOr<Prediction>> future = queued.promise.get_future();

  // Admission and enqueue are one critical section under the dispatch lock.
  // Idle workers evaluate their wait predicate (the queue depths) under
  // that lock, so a worker either sees the request or is already blocked
  // when the notify below arrives. Enqueued outside it, the request could
  // land between a worker's predicate and its block and sleep in the queue
  // until some later Submit woke the worker. The lock order dispatch ->
  // replica queue is the one Supervisor::Redispatch uses. The pending count
  // rises in the same section, before any worker that popped the request
  // can take this lock to lower it, so pending stays an upper bound on
  // queued work (the drain/stop protocol depends on it).
  bool enqueued = false;
  bool any_healthy = true;
  {
    std::lock_guard<std::mutex> lock(dispatch_.mu);
    if (dispatch_.stopping) {
      metrics_.RecordRejected();
      return Rejected(Status::FailedPrecondition("cluster is shutting down"));
    }
    if (dispatch_.draining > 0) {
      // A Drain() is waiting for the backlog to hit zero; admitting more
      // work now would race its predicate (and could starve it forever
      // under sustained traffic). Typed and retryable: once Drain returns,
      // resubmitting succeeds.
      metrics_.RecordRejected();
      return Rejected(Status::Unavailable(
          "cluster is draining; retry after Drain() returns"));
    }
    if (ShouldShedTenantLocked(request.tenant)) {
      metrics_.RecordShed();
      cluster_metrics_.RecordTenantShed();
      return Rejected(Status::ResourceExhausted(
          "fair-share admission shed request (tenant \"" + request.tenant +
          "\" at share, cluster backlog " +
          std::to_string(dispatch_.pending) + ")"));
    }
    if (target >= 0) {
      enqueued = replicas_[static_cast<size_t>(target)]->TryEnqueue(
          std::move(queued));
    } else {
      // Join-shortest-queue over the healthy replicas with a rotating
      // tie-break; on a full queue, fall through to the next-shortest
      // instead of rejecting outright. An unhealthy replica's worker is
      // hung, dead, or restarting — queueing behind it would strand the
      // request until the supervisor recovered it a second time.
      std::vector<size_t> order;
      order.reserve(replicas_.size());
      for (size_t i = 0; i < replicas_.size(); ++i) {
        if (replicas_[i]->health() == ReplicaHealth::kHealthy) {
          order.push_back(i);
        }
      }
      any_healthy = !order.empty();
      if (any_healthy) {
        const size_t base = rr_cursor_++ % order.size();
        std::rotate(order.begin(),
                    order.begin() + static_cast<ptrdiff_t>(base), order.end());
        std::stable_sort(order.begin(), order.end(),
                         [this](size_t a, size_t b) {
                           return replicas_[a]->depth() <
                                  replicas_[b]->depth();
                         });
        for (size_t idx : order) {
          if (replicas_[idx]->TryEnqueue(std::move(queued))) {
            enqueued = true;
            break;
          }
        }
      }
    }
    if (enqueued) {
      ++dispatch_.pending;
      ++tenant_inflight_[request.tenant];
    }
  }

  if (!enqueued) {
    // TryEnqueue only consumes the request on success, and nothing was
    // reserved for it.
    metrics_.RecordRejected();
    if (!any_healthy) {
      return Rejected(Status::Unavailable(
          "no healthy replica available (cluster self-healing)"));
    }
    return Rejected(Status::ResourceExhausted(
        target >= 0 ? "replica queue is full (cluster overloaded)"
                    : "every replica queue is full (cluster overloaded)"));
  }

  // notify_all, not notify_one: with stealing disabled only the owning
  // replica's wait predicate passes, and notify_one could wake a sibling
  // that just goes back to sleep, swallowing the wakeup.
  dispatch_.work_cv.notify_all();
  cluster_metrics_.RecordDispatch();
  return future;
}

}  // namespace deepmap::serve
