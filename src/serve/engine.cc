#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

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

}  // namespace

InferenceEngine::InferenceEngine(std::shared_ptr<ServableModel> model,
                                 const Options& options)
    : model_(std::move(model)),
      options_(options),
      metrics_(options.metrics_registry),
      cache_(options.cache_capacity, options.cache_shards,
             &metrics_.registry()),
      pool_(options.num_threads),
      servable_(model_),
      pipeline_(&servable_, &pool_, &cache_, &metrics_,
                options.enable_degraded,
                BatchPipeline::Hooks{
                    [this](double total_us) { RecordLatencySample(total_us); },
                    /*on_complete=*/nullptr}),
      admission_rng_(options.admission.seed),
      dynamic_graphs_(/*wl_iterations=*/0) {
  DEEPMAP_CHECK(model_ != nullptr);
  DEEPMAP_LOG(Info) << "InferenceEngine serving model '" << model_->name()
                    << "' via backend '" << model_->backend_name() << "'";
  batcher_ = std::make_unique<MicroBatcher>(
      options_.batcher,
      [this](std::vector<ServeRequest>&& batch, size_t depth_after) {
        pipeline_.Execute(std::move(batch), depth_after);
      });
}

InferenceEngine::~InferenceEngine() {
  // MicroBatcher::~MicroBatcher drains the queue through HandleBatch, which
  // still needs pool_/cache_/metrics_ — stop it before anything else dies.
  batcher_->Stop();
}

void InferenceEngine::RecordLatencySample(double total_us) {
  std::lock_guard<std::mutex> lock(latency_mu_);
  latency_window_[latency_next_] = total_us;
  latency_next_ = (latency_next_ + 1) % kP95Window;
  ++latency_count_;
  if (latency_count_ < kP95Refresh || latency_count_ % kP95Refresh != 0) {
    return;
  }
  const size_t filled = std::min(latency_count_, kP95Window);
  std::array<double, kP95Window> scratch;
  std::copy(latency_window_.begin(),
            latency_window_.begin() + static_cast<ptrdiff_t>(filled),
            scratch.begin());
  size_t rank = static_cast<size_t>(0.95 * static_cast<double>(filled));
  if (rank >= filled) rank = filled - 1;
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<ptrdiff_t>(rank),
                   scratch.begin() + static_cast<ptrdiff_t>(filled));
  p95_us_.store(scratch[rank], std::memory_order_relaxed);
}

bool InferenceEngine::ShouldShed(std::string* detail) {
  const AdmissionOptions& admission = options_.admission;
  double shed_probability = 0.0;
  const size_t depth = batcher_->queue_depth();
  const size_t capacity = options_.batcher.queue_capacity;
  if (admission.queue_shed_watermark < 1.0 && capacity > 0) {
    const double utilization =
        static_cast<double>(depth) / static_cast<double>(capacity);
    if (utilization >= admission.queue_shed_watermark) {
      shed_probability = (utilization - admission.queue_shed_watermark) /
                         (1.0 - admission.queue_shed_watermark);
    }
  }
  const double p95 = observed_p95_us();
  if (admission.p95_target_us > 0.0 && p95 > admission.p95_target_us) {
    // Ramp: certain shed at 2x the latency target.
    shed_probability = std::max(
        shed_probability, std::min(1.0, p95 / admission.p95_target_us - 1.0));
  }
  if (shed_probability <= 0.0) return false;
  bool shed = shed_probability >= 1.0;
  if (!shed) {
    std::lock_guard<std::mutex> lock(admission_mu_);
    shed = admission_rng_.Bernoulli(shed_probability);
  }
  if (shed && detail != nullptr) {
    *detail = "queue depth " + std::to_string(depth) + "/" +
              std::to_string(capacity) + ", observed p95 " +
              std::to_string(static_cast<int64_t>(p95)) + "us";
  }
  return shed;
}

std::future<StatusOr<Prediction>> InferenceEngine::Submit(
    const graph::Graph& g, const RequestOptions& request) {
  return SubmitPrepared(g, request, std::string(), /*lookup_cache=*/true);
}

std::future<StatusOr<Prediction>> InferenceEngine::SubmitPrepared(
    const graph::Graph& g, const RequestOptions& request,
    std::string cache_key, bool lookup_cache) {
  // Covers admission + cache lookup + enqueue; queue/preprocess/forward time
  // shows up under the dispatcher's serve.batch span instead.
  DEEPMAP_TRACE_SPAN("serve.submit", "serve");
  const auto start = std::chrono::steady_clock::now();
  ServeRequest queued;
  queued.enqueue_time = start;
  queued.tenant = request.tenant;
  if (request.deadline.has_value()) queued.deadline = *request.deadline;
  std::future<StatusOr<Prediction>> future = queued.promise.get_future();

  auto reject = [&](Status status) {
    std::promise<StatusOr<Prediction>> rejected;
    std::future<StatusOr<Prediction>> f = rejected.get_future();
    rejected.set_value(StatusOr<Prediction>(std::move(status)));
    return f;
  };

  // Stage "admission": a request that arrives already expired never costs a
  // hash, a queue slot, or a batch.
  if (Expired(queued.deadline)) {
    metrics_.RecordDeadlineExceeded("admission");
    return reject(DeadlineError("admission"));
  }

  if (options_.cache_capacity > 0) {
    queued.cache_key =
        cache_key.empty()
            ? PredictionCache::KeyFor(g, /*wl_iterations=*/0)
            : std::move(cache_key);
    if (lookup_cache) {
      if (std::optional<Prediction> hit = cache_.Lookup(queued.cache_key)) {
        RequestTiming timing;
        timing.cache_hit = true;
        timing.total_us = MicrosSince(start, std::chrono::steady_clock::now());
        metrics_.RecordRequest(timing);
        metrics_.RecordOutcome(ServeOutcome::kOk);
        RecordLatencySample(timing.total_us);
        queued.promise.set_value(std::move(*hit));
        return future;
      }
    }
  }

  // Overload: shedding a request we cannot serve in time is cheaper for
  // everyone than queueing it — the caller gets a fast, typed, retryable
  // answer instead of a slow deadline error.
  std::string shed_detail;
  if (ShouldShed(&shed_detail)) {
    metrics_.RecordShed();
    return reject(Status::ResourceExhausted("admission control shed request (" +
                                            shed_detail + ")"));
  }

  queued.graph = g;
  if (Status s = batcher_->Submit(std::move(queued)); !s.ok()) {
    // Submit only fails before moving the request into the queue, so the
    // promise is still ours to fulfill.
    metrics_.RecordRejected();
    return reject(std::move(s));
  }
  return future;
}

StatusOr<Prediction> InferenceEngine::Classify(const graph::Graph& g,
                                               const RequestOptions& request) {
  const RetryOptions& retry = options_.retry;
  int64_t backoff_us = retry.initial_backoff_us;
  for (int attempt = 1;; ++attempt) {
    StatusOr<Prediction> result = Submit(g, request).get();
    if (result.ok() || attempt >= retry.max_attempts ||
        !IsRetryable(result.status().code())) {
      return result;
    }
    if (request.deadline.has_value() &&
        std::chrono::steady_clock::now() +
                std::chrono::microseconds(backoff_us) >=
            *request.deadline) {
      // Backing off would blow the deadline; the transient error is the
      // better answer than a guaranteed DeadlineExceeded later.
      return result;
    }
    metrics_.RecordRetry();
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    backoff_us = std::min(
        retry.max_backoff_us,
        static_cast<int64_t>(static_cast<double>(backoff_us) *
                             retry.backoff_multiplier));
  }
}

Status InferenceEngine::RegisterDynamicGraph(const std::string& id,
                                             graph::Graph g) {
  return dynamic_graphs_.Register(id, std::move(g));
}

Status InferenceEngine::UnregisterDynamicGraph(const std::string& id) {
  return dynamic_graphs_.Unregister(id);
}

StatusOr<Prediction> InferenceEngine::ClassifyDelta(
    const std::string& id, const std::vector<graph::EdgeUpdate>& updates,
    const RequestOptions& request) {
  DEEPMAP_TRACE_SPAN("serve.classify_delta", "serve");
  const auto start = std::chrono::steady_clock::now();
  if (request.deadline.has_value() && Expired(*request.deadline)) {
    metrics_.RecordDeadlineExceeded("admission");
    return DeadlineError("admission");
  }
  StatusOr<DeltaResult> delta = dynamic_graphs_.ApplyDelta(id, updates);
  if (!delta.ok()) return delta.status();
  metrics_.RecordDynamicUpdate(delta.value().applied);
  if (options_.cache_capacity > 0) {
    // Erase exactly the pre-delta structure's entry. With exact keys it is
    // not stale, but keeping it would add a cache entry per delta. (A no-op
    // delta leaves the keys equal — never drop the entry about to be looked
    // up.)
    if (delta.value().old_key != delta.value().new_key) {
      cache_.Erase(delta.value().old_key);
    }
    if (std::optional<Prediction> hit = cache_.Lookup(delta.value().new_key)) {
      metrics_.RecordDynamicIncrementalHit();
      RequestTiming timing;
      timing.cache_hit = true;
      timing.total_us = MicrosSince(start, std::chrono::steady_clock::now());
      metrics_.RecordRequest(timing);
      metrics_.RecordOutcome(ServeOutcome::kOk);
      RecordLatencySample(timing.total_us);
      return std::move(*hit);
    }
  }
  // Miss: full pipeline on the mutated snapshot, reusing the key the store
  // already computed and skipping the second lookup (the miss above is the
  // one the cache counters should see).
  metrics_.RecordDynamicFullRecompute();
  return SubmitPrepared(delta.value().graph, request,
                        std::move(delta.value().new_key),
                        /*lookup_cache=*/false)
      .get();
}

void InferenceEngine::Drain() { batcher_->Drain(); }

}  // namespace deepmap::serve
