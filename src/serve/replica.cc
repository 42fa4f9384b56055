#include "serve/replica.h"

#include <algorithm>

#include "common/check.h"
#include "common/failpoint.h"
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

/// Infrastructure failures eligible for degraded answers. Client errors
/// (InvalidArgument) and deadline expiry must surface unchanged.
bool Degradable(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kInternal;
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchPipeline

BatchPipeline::BatchPipeline(ServableHandle* servable, ThreadPool* pool,
                             PredictionCache* cache, ServeMetrics* metrics,
                             bool enable_degraded,
                             RequestCompleteFn on_complete)
    : servable_(servable),
      pool_(pool),
      cache_(cache),
      metrics_(metrics),
      enable_degraded_(enable_degraded),
      on_complete_(std::move(on_complete)) {
  DEEPMAP_CHECK(servable_ != nullptr);
  DEEPMAP_CHECK(pool_ != nullptr);
  DEEPMAP_CHECK(metrics_ != nullptr);
  forward_scratch_.resize(std::max<size_t>(pool_->num_threads(), 1));
}

void BatchPipeline::Begin(State* state, std::vector<ServeRequest>&& batch,
                          size_t queue_depth_after) {
  const size_t n = batch.size();
  state->batch = std::move(batch);
  // Pin the servable for the whole batch: a hot reload that swaps the handle
  // mid-batch must not mix two models' preprocessors/weights in one forward
  // pass. The shared_ptr keeps the old version alive until the batch ends.
  state->model = servable_->Get();
  state->dispatch_time = std::chrono::steady_clock::now();
  metrics_->RecordQueueDepth(queue_depth_after);

  // Whole-batch fault: models a dispatcher-side failure after dequeue. It
  // covers requests admitted into this batch later too — they join a batch
  // whose dispatch already failed. The per-request degradation/error path
  // in Complete still answers every promise.
  if (DEEPMAP_FAILPOINT_TRIGGERED("serve.engine.batch")) {
    state->batch_fault = Status::Unavailable(
        "injected fault at serve.engine.batch (stage=dispatch)");
  }

  state->statuses.resize(n);
  state->deadline_stage.resize(n, nullptr);
  state->inputs.resize(n);
  state->preprocess_us.resize(n, 0.0);
  state->predictions.resize(n);
  state->forward_us.resize(n, 0.0);
}

void BatchPipeline::Admit(State* state, std::vector<ServeRequest>&& more) {
  const size_t n = state->batch.size() + more.size();
  for (ServeRequest& r : more) state->batch.push_back(std::move(r));
  state->statuses.resize(n);
  state->deadline_stage.resize(n, nullptr);
  state->inputs.resize(n);
  state->preprocess_us.resize(n, 0.0);
  state->predictions.resize(n);
  state->forward_us.resize(n, 0.0);
}

void BatchPipeline::Preprocess(State* state) {
  // Covers batch[preprocessed, n): everything on the first call, exactly the
  // admitted tail after an Admit. Requests whose deadline already passed are
  // skipped before costing any preprocessing work.
  const size_t n = state->batch.size();
  Preprocessor& preprocessor = state->model->preprocessor();
  for (size_t i = state->preprocessed; i < n; ++i) {
    if (!state->batch_fault.ok()) {
      state->statuses[i] = state->batch_fault;
      continue;
    }
    if (Expired(state->batch[i].deadline)) {
      state->statuses[i] = DeadlineError("preprocess");
      state->deadline_stage[i] = "preprocess";
      continue;
    }
    pool_->Submit([this, state, i, &preprocessor] {
      DEEPMAP_TRACE_SPAN("serve.preprocess", "serve");
      const auto t0 = std::chrono::steady_clock::now();
      StatusOr<SparseInput> result =
          preprocessor.PreprocessSparse(state->batch[i].graph);
      if (result.ok()) {
        state->inputs[i] = std::move(result).value();
      } else {
        state->statuses[i] = result.status();
      }
      state->preprocess_us[i] =
          MicrosSince(t0, std::chrono::steady_clock::now());
    });
  }
  pool_->Wait();
  state->preprocessed = n;
}

void BatchPipeline::Forward(State* state) {
  // Sync point between the pipeline stages (bool intentionally unused):
  // tests park here to expire deadlines after preprocessing but before the
  // forward pass, pinning stage attribution deterministically.
  (void)DEEPMAP_FAILPOINT_TRIGGERED("serve.engine.before_forward");

  // Batched forward pass over requests that survived preprocessing and
  // still have time left, sharded across the pool. Shard k reuses the
  // pipeline's k-th scratch workspace for its whole slice.
  const size_t n = state->batch.size();
  std::vector<size_t> valid;
  valid.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!state->statuses[i].ok()) continue;
    if (Expired(state->batch[i].deadline)) {
      state->statuses[i] = DeadlineError("forward");
      state->deadline_stage[i] = "forward";
      continue;
    }
    valid.push_back(i);
  }
  if (valid.empty()) return;
  const CompiledModel& compiled = state->model->compiled();
  const size_t num_shards = std::min(forward_scratch_.size(), valid.size());
  const size_t per_shard = (valid.size() + num_shards - 1) / num_shards;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const size_t begin = shard * per_shard;
    const size_t end = std::min(valid.size(), begin + per_shard);
    if (begin >= end) break;
    ForwardScratch* scratch = &forward_scratch_[shard];
    pool_->Submit([state, &valid, &compiled, begin, end, scratch] {
      DEEPMAP_TRACE_SPAN("serve.forward", "serve");
      for (size_t v = begin; v < end; ++v) {
        const size_t i = valid[v];
        if (DEEPMAP_FAILPOINT_TRIGGERED("serve.forward")) {
          state->statuses[i] = Status::Unavailable(
              "injected fault at serve.forward (stage=forward)");
          continue;
        }
        const auto t0 = std::chrono::steady_clock::now();
        state->predictions[i] = compiled.Predict(state->inputs[i], scratch);
        state->forward_us[i] =
            MicrosSince(t0, std::chrono::steady_clock::now());
      }
    });
  }
  pool_->Wait();
}

void BatchPipeline::Complete(State* state) {
  // Warm the cache, fulfill promises (degrading model-path failures when
  // enabled), record metrics. Every promise in the batch is resolved
  // exactly once on every path through this loop.
  DEEPMAP_TRACE_SPAN("serve.complete", "serve");
  const size_t n = state->batch.size();
  metrics_->RecordBatch(static_cast<int>(n));
  metrics_->RecordWlColors(state->model->preprocessor().wl_colors());
  for (size_t i = 0; i < n; ++i) {
    ServeRequest& request = state->batch[i];
    RequestTiming timing;
    timing.queue_us = MicrosSince(request.enqueue_time, state->dispatch_time);
    timing.preprocess_us = state->preprocess_us[i];
    timing.forward_us = state->forward_us[i];
    timing.total_us =
        MicrosSince(request.enqueue_time, std::chrono::steady_clock::now());
    metrics_->RecordRequest(timing);
    if (state->statuses[i].ok()) {
      if (cache_ != nullptr && !request.cache_key.empty()) {
        cache_->Insert(request.cache_key, state->predictions[i]);
      }
      metrics_->RecordOutcome(ServeOutcome::kOk);
      request.promise.set_value(std::move(state->predictions[i]));
      if (on_complete_) on_complete_(request);
      continue;
    }
    const StatusCode code = state->statuses[i].code();
    if (code == StatusCode::kDeadlineExceeded) {
      metrics_->RecordDeadlineExceeded(state->deadline_stage[i] != nullptr
                                           ? state->deadline_stage[i]
                                           : "unknown");
      request.promise.set_value(StatusOr<Prediction>(state->statuses[i]));
      if (on_complete_) on_complete_(request);
      continue;
    }
    if (enable_degraded_ && Degradable(code)) {
      // Stale-ok cache answer: the key may have been warmed by a sibling
      // request (or the admission lookup may have hit an injected outage)
      // since this request was admitted.
      bool answered = false;
      if (cache_ != nullptr && !request.cache_key.empty()) {
        if (std::optional<Prediction> stale =
                cache_->Lookup(request.cache_key)) {
          stale->source = PredictionSource::kStaleCache;
          metrics_->RecordDegradedStale();
          request.promise.set_value(std::move(*stale));
          answered = true;
        }
      }
      if (!answered) {
        metrics_->RecordDegradedFallback();
        request.promise.set_value(state->model->fallback_prediction());
      }
      if (on_complete_) on_complete_(request);
      continue;
    }
    metrics_->RecordOutcome(ServeOutcome::kError);
    request.promise.set_value(StatusOr<Prediction>(state->statuses[i]));
    if (on_complete_) on_complete_(request);
  }
}

// ---------------------------------------------------------------------------
// EngineReplica

EngineReplica::EngineReplica(size_t index, const Options& options,
                             ServableHandle* servable, PredictionCache* cache,
                             ServeMetrics* metrics,
                             ClusterMetrics* cluster_metrics,
                             DispatchState* dispatch,
                             RequestCompleteFn on_complete)
    : index_(index),
      options_(options),
      servable_(servable),
      metrics_(metrics),
      cluster_metrics_(cluster_metrics),
      dispatch_(dispatch),
      span_name_("serve.replica" + std::to_string(index) + ".batch"),
      pool_(std::max<size_t>(options.num_threads, 1)),
      pipeline_(servable, &pool_, cache, metrics, options.enable_degraded,
                std::move(on_complete)) {
  DEEPMAP_CHECK_GT(options_.max_batch, 0);
  DEEPMAP_CHECK_GT(options_.queue_capacity, size_t{0});
  DEEPMAP_CHECK(dispatch_ != nullptr);
}

EngineReplica::~EngineReplica() {
  // The owner (ServeCluster) must have stopped and joined the worker; a
  // still-running worker here would use freed state.
  DEEPMAP_CHECK(!worker_.joinable());
}

void EngineReplica::Start(
    const std::vector<std::unique_ptr<EngineReplica>>* siblings) {
  DEEPMAP_CHECK(!worker_.joinable());
  siblings_ = siblings;
  worker_ = std::thread([this] { Loop(); });
}

void EngineReplica::Join() {
  if (worker_.joinable()) worker_.join();
}

bool EngineReplica::TryEnqueue(ServeRequest&& request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.size() >= options_.queue_capacity) return false;
  queue_.push_back(std::move(request));
  depth_.store(queue_.size(), std::memory_order_relaxed);
  return true;
}

std::vector<ServeRequest> EngineReplica::PopOwn(size_t max) {
  std::vector<ServeRequest> taken;
  std::lock_guard<std::mutex> lock(mu_);
  const size_t take = std::min(queue_.size(), max);
  taken.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    taken.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  depth_.store(queue_.size(), std::memory_order_relaxed);
  return taken;
}

std::vector<ServeRequest> EngineReplica::DrainQueue() {
  std::vector<ServeRequest> taken;
  std::lock_guard<std::mutex> lock(mu_);
  taken.reserve(queue_.size());
  while (!queue_.empty()) {
    taken.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  depth_.store(0, std::memory_order_relaxed);
  return taken;
}

std::vector<ServeRequest> EngineReplica::Steal() {
  if (siblings_ == nullptr) return {};
  EngineReplica* victim = nullptr;
  size_t longest = 0;
  for (const auto& sibling : *siblings_) {
    if (sibling.get() == this) continue;
    // An unhealthy sibling's backlog belongs to the supervisor: it will be
    // drained and re-dispatched (or quarantined) as part of recovery, and
    // stealing from it would race that confiscation.
    if (sibling->health() != ReplicaHealth::kHealthy) continue;
    const size_t d = sibling->depth();
    if (d > longest) {
      longest = d;
      victim = sibling.get();
    }
  }
  if (victim == nullptr) return {};
  // Take the FRONT half: the oldest requests are the ones most at risk of
  // blowing their deadlines behind a loaded replica, and the victim keeps
  // serving its newer tail FIFO.
  std::vector<ServeRequest> stolen;
  std::lock_guard<std::mutex> lock(victim->mu_);
  const size_t available = victim->queue_.size();
  if (available == 0) return {};
  const size_t take = std::min<size_t>(
      (available + 1) / 2, static_cast<size_t>(options_.max_batch));
  stolen.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    stolen.push_back(std::move(victim->queue_.front()));
    victim->queue_.pop_front();
  }
  victim->depth_.store(victim->queue_.size(), std::memory_order_relaxed);
  return stolen;
}

bool EngineReplica::HasStealableBacklog() const {
  if (siblings_ == nullptr) return false;
  for (const auto& sibling : *siblings_) {
    if (sibling.get() == this) continue;
    if (sibling->health() != ReplicaHealth::kHealthy) continue;
    if (sibling->depth() > 0) return true;
  }
  return false;
}

std::chrono::microseconds EngineReplica::parked_for() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  if (inflight_state_ != InflightState::kParked) {
    return std::chrono::microseconds{0};
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - parked_since_);
}

std::vector<ServeRequest> EngineReplica::ConfiscateParkedBatch() {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  if (inflight_state_ != InflightState::kParked) return {};
  inflight_state_ = InflightState::kNone;
  std::vector<ServeRequest> batch = std::move(inflight_batch_);
  inflight_batch_.clear();
  return batch;
}

void EngineReplica::AbandonStall() {
  std::lock_guard<std::mutex> lock(stall_mu_);
  stall_abandoned_ = true;
  stall_cv_.notify_all();
}

void EngineReplica::SimulateStall() {
  std::unique_lock<std::mutex> lock(stall_mu_);
  stall_cv_.wait(lock, [this] { return stall_abandoned_; });
}

void EngineReplica::Restart() {
  DEEPMAP_CHECK(worker_exited());
  Join();
  {
    std::lock_guard<std::mutex> lock(stall_mu_);
    stall_abandoned_ = false;
  }
  worker_exited_.store(false, std::memory_order_release);
  worker_ = std::thread([this] { Loop(); });
}

void EngineReplica::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(dispatch_->mu);
      // The stealing arm of the predicate checks for *stealable* backlog,
      // not just pending > 0: when every queued request sits on unhealthy
      // siblings the backlog belongs to the supervisor, and waking for it
      // would busy-spin every idle worker (and at shutdown, block the join
      // forever).
      dispatch_->work_cv.wait(lock, [this] {
        return dispatch_->stopping || depth() > 0 ||
               (options_.enable_work_stealing && HasStealableBacklog());
      });
      if (dispatch_->stopping && depth() == 0 &&
          (!options_.enable_work_stealing || !HasStealableBacklog())) {
        // Drained (or the backlog lives on sibling queues and stealing is
        // off, in which case its owners flush it).
        worker_exited_.store(true, std::memory_order_release);
        return;
      }
    }
    std::vector<ServeRequest> batch =
        PopOwn(static_cast<size_t>(options_.max_batch));
    bool stolen = false;
    if (batch.empty() && options_.enable_work_stealing) {
      batch = Steal();
      stolen = !batch.empty();
    }
    if (batch.empty()) continue;  // raced a sibling; back to waiting
    {
      std::lock_guard<std::mutex> lock(dispatch_->mu);
      dispatch_->pending -= static_cast<int64_t>(batch.size());
      ++dispatch_->active_batches;
    }
    if (stolen && cluster_metrics_ != nullptr) {
      cluster_metrics_->RecordSteal(static_cast<int64_t>(batch.size()));
    }

    // Park the batch in the in-flight slot before touching the pipeline.
    // From here until the claim below the supervisor may confiscate it —
    // that transition, not any flag, decides who answers the promises.
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_state_ = InflightState::kParked;
      inflight_batch_ = std::move(batch);
      parked_since_ = std::chrono::steady_clock::now();
    }

    // Injected failures, evaluated while the batch is recoverable. A hang
    // parks the worker on stall_cv_ until the supervisor (or shutdown)
    // abandons it; a crash makes the worker thread exit outright. Either
    // way the batch stays in the slot for the supervisor to confiscate.
    bool stalled = false;
    if (DEEPMAP_FAILPOINT_TRIGGERED("serve.replica.hang")) {
      stalled = true;
      SimulateStall();
    }
    if (DEEPMAP_FAILPOINT_TRIGGERED("serve.replica.crash")) {
      worker_exited_.store(true, std::memory_order_release);
      return;
    }

    // Claim the batch back: kParked -> kExecuting. Losing the race means
    // the supervisor confiscated it (and repaired the accounting); the
    // requests are no longer ours.
    bool claimed = false;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      if (inflight_state_ == InflightState::kParked) {
        inflight_state_ = InflightState::kExecuting;
        batch = std::move(inflight_batch_);
        inflight_batch_.clear();
        claimed = true;
      }
    }
    if (claimed) {
      ProcessBatch(std::move(batch));
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_state_ = InflightState::kNone;
      }
      heartbeat_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(dispatch_->mu);
        --dispatch_->active_batches;
        if (dispatch_->pending == 0 && dispatch_->active_batches == 0 &&
            dispatch_->detached == 0) {
          dispatch_->drain_cv.notify_all();
        }
      }
    }
    if (!claimed || stalled) {
      // Lost the batch to confiscation, or survived an abandoned stall
      // (whose batch we just finished): either way the supervisor has
      // declared this worker failed and is waiting on worker_exited() to
      // restart it. Exit so that restart can proceed.
      worker_exited_.store(true, std::memory_order_release);
      return;
    }
  }
}

void EngineReplica::ProcessBatch(std::vector<ServeRequest>&& batch) {
  obs::Tracer::Span span(obs::Tracer::Global(), span_name_.c_str(), "serve");
  // Sync point, not a failure: tests park a replica here (batch popped, not
  // yet executed) to pin stealing and continuous-batching deterministically.
  (void)DEEPMAP_FAILPOINT_TRIGGERED("serve.cluster.batch");

  BatchPipeline::State state;
  pipeline_.Begin(&state, std::move(batch), depth());
  pipeline_.Preprocess(&state);

  if (options_.continuous_batching &&
      state.batch.size() < static_cast<size_t>(options_.max_batch)) {
    // Continuous batching: requests that arrived while this batch was
    // preprocessing join it now instead of waiting for the next dispatch,
    // so they share the already-scheduled forward pass.
    std::vector<ServeRequest> admitted = PopOwn(
        static_cast<size_t>(options_.max_batch) - state.batch.size());
    if (!admitted.empty()) {
      {
        std::lock_guard<std::mutex> lock(dispatch_->mu);
        dispatch_->pending -= static_cast<int64_t>(admitted.size());
      }
      if (cluster_metrics_ != nullptr) {
        cluster_metrics_->RecordContinuousAdmit(
            static_cast<int64_t>(admitted.size()));
      }
      pipeline_.Admit(&state, std::move(admitted));
      pipeline_.Preprocess(&state);
    }
  }

  pipeline_.Forward(&state);
  pipeline_.Complete(&state);
  if (cluster_metrics_ != nullptr) {
    cluster_metrics_->RecordReplicaBatch(
        index_, static_cast<int64_t>(state.batch.size()));
  }
}

}  // namespace deepmap::serve
