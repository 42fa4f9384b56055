// Resilience tests for the serving stack (a one-replica ServeCluster unless
// a test says otherwise): deadlines with stage attribution, graceful
// degradation, outcome accounting, shutdown that resolves every accepted
// promise, and deterministic race/chaos coverage driven by fail points
// instead of sleeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/deepmap.h"
#include "datasets/registry.h"
#include "nn/model.h"
#include "nn/serialization.h"
#include "serve/cluster.h"

namespace deepmap {
namespace {

using serve::Prediction;
using serve::PredictionSource;
using serve::RequestOptions;
using serve::ServeCluster;
using serve::ServeOutcome;

constexpr auto kWatchdog = std::chrono::seconds(20);

/// Leaves the process-wide fail-point registry clean no matter how a test
/// exits, so one test's faults can never leak into the next.
struct FailPointGuard {
  ~FailPointGuard() { FailPointRegistry::Instance().DisableAll(); }
};

/// A gate that a fail-point hook can park a replica worker on. Once
/// opened it stays open, so late evaluations (e.g. during shutdown drain)
/// never deadlock.
struct DispatchGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> parked{0};

  void Park() {
    ++parked;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void AwaitParked() {
    while (parked.load() == 0) std::this_thread::yield();
  }
};

/// Blocks until `f` resolves or the watchdog fires; a timeout means a
/// promise was abandoned, which the serving stack must never do.
StatusOr<Prediction> MustResolve(std::future<StatusOr<Prediction>>& f) {
  EXPECT_EQ(f.wait_for(kWatchdog), std::future_status::ready)
      << "future abandoned";
  return f.get();
}

// Shared trained bundle (training is the slow part; once per process).
struct TrainedBundle {
  graph::GraphDataset dataset;
  core::DeepMapConfig config;
  std::unique_ptr<core::DeepMapPipeline> pipeline;
  std::unique_ptr<core::DeepMapModel> model;
  serve::ModelRegistry registry;
  std::shared_ptr<serve::ServableModel> servable;
  int majority_label = 0;
};

TrainedBundle& Bundle() {
  static TrainedBundle* bundle = [] {
    auto* b = new TrainedBundle();
    datasets::DatasetOptions options;
    options.min_graphs = 30;
    auto dataset_or = datasets::MakeDataset("PTC_MM", options);
    DEEPMAP_CHECK(dataset_or.ok());
    b->dataset = std::move(dataset_or).value();

    b->config.features.kind = kernels::FeatureMapKind::kWlSubtree;
    b->config.features.wl.iterations = 2;
    b->config.features.max_dense_dim = 32;
    b->config.train.epochs = 2;
    b->config.train.batch_size = 8;

    b->pipeline =
        std::make_unique<core::DeepMapPipeline>(b->dataset, b->config);
    b->model = std::make_unique<core::DeepMapModel>(
        b->pipeline->feature_dim(), b->pipeline->sequence_length(),
        b->pipeline->num_classes(), b->config);
    nn::TrainClassifier(*b->model, b->pipeline->inputs(),
                        b->dataset.labels(), b->config.train);

    Status s = b->registry.Adopt("ptc_mm", b->dataset, b->config, *b->model);
    DEEPMAP_CHECK(s.ok());
    b->servable = b->registry.Get("ptc_mm");
    DEEPMAP_CHECK(b->servable != nullptr);

    // Majority class of the reference labels, first-maximal on ties —
    // matching how ServableModel derives its fallback prediction.
    std::map<int, int> counts;
    for (int label : b->dataset.labels()) ++counts[label];
    int best = 0;
    for (const auto& [label, count] : counts) {
      if (count > best) {
        best = count;
        b->majority_label = label;
      }
    }
    return b;
  }();
  return *bundle;
}

ServeCluster::Options FastOptions() {
  ServeCluster::Options options;
  options.num_replicas = 1;
  options.replica.max_batch = 8;
  options.replica.queue_capacity = 1024;  // a saturating producer fits
  options.cache_capacity = 0;  // force the full pipeline unless a test opts in
  return options;
}

/// Arms "serve.cluster.batch" (once) to park the worker that pops the next
/// batch on `gate`.
void ParkNextBatchOn(DispatchGate& gate) {
  FailPointSpec spec = FailPointSpec::Once();
  spec.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", std::move(spec));
}

// ---------------------------------------------------------------------------
// Deadlines with stage attribution

TEST(DeadlineTest, ExpiredAtAdmissionIsRejectedBeforeQueueing) {
  FailPointGuard guard;
  TrainedBundle& b = Bundle();
  ServeCluster cluster(b.servable, FastOptions());

  RequestOptions request;
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto f = cluster.Submit(b.dataset.graph(0), request);
  StatusOr<Prediction> result = MustResolve(f);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("stage=admission"),
            std::string::npos)
      << result.status().ToString();

  const serve::ServeMetrics& m = cluster.metrics();
  EXPECT_EQ(m.deadline_exceeded("admission"), 1);
  EXPECT_EQ(m.outcome_count(ServeOutcome::kDeadlineExceeded), 1);
  // The expired request never consumed a batch.
  EXPECT_EQ(m.num_batches(), 0);
}

TEST(DeadlineTest, ExpiryWhileQueuedIsAttributedToPreprocess) {
  FailPointGuard guard;
  TrainedBundle& b = Bundle();
  ServeCluster cluster(b.servable, FastOptions());

  // Park the replica (once, batch popped but not begun) until the request's
  // deadline has passed — a deterministic stand-in for a backed-up queue, no
  // sleeps in the assertion path.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  FailPointSpec spec = FailPointSpec::Once();
  spec.on_trigger = [deadline] {
    std::this_thread::sleep_until(deadline + std::chrono::milliseconds(2));
  };
  FailPointRegistry::Instance().Enable("serve.cluster.batch",
                                       std::move(spec));

  RequestOptions request;
  request.deadline = deadline;
  auto f = cluster.Submit(b.dataset.graph(0), request);
  StatusOr<Prediction> result = MustResolve(f);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("stage=preprocess"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(cluster.metrics().deadline_exceeded("preprocess"), 1);
  // Skipped before preprocessing cost anything (0us recorded for the stage).
  EXPECT_EQ(cluster.metrics().Latency("preprocess").max, 0.0);
}

TEST(DeadlineTest, ExpiryAfterPreprocessIsAttributedToForward) {
  FailPointGuard guard;
  TrainedBundle& b = Bundle();
  ServeCluster cluster(b.servable, FastOptions());

  // Preprocessing finishes well inside the deadline; the sync point between
  // the pipeline stages then parks until it has expired, pinning the
  // forward-stage attribution deterministically.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  FailPointSpec spec = FailPointSpec::Once();
  spec.on_trigger = [deadline] {
    std::this_thread::sleep_until(deadline + std::chrono::milliseconds(2));
  };
  FailPointRegistry::Instance().Enable("serve.engine.before_forward",
                                       std::move(spec));

  RequestOptions request;
  request.deadline = deadline;
  auto f = cluster.Submit(b.dataset.graph(0), request);
  StatusOr<Prediction> result = MustResolve(f);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("stage=forward"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(cluster.metrics().deadline_exceeded("forward"), 1);
  // Preprocessing ran; only the forward pass was abandoned.
  EXPECT_EQ(cluster.metrics().stage_count("preprocess"), 1);
}

// ---------------------------------------------------------------------------
// Shutdown: every accepted promise resolves, made deterministic with
// fail-point gates

/// Reads a resolved future without letting a broken promise (a request the
/// cluster dropped) escape as an exception: it fails the test instead.
StatusOr<Prediction> ResolvedValue(std::future<StatusOr<Prediction>>& f) {
  try {
    return MustResolve(f);
  } catch (const std::future_error& e) {
    ADD_FAILURE() << "promise abandoned: " << e.what();
    return Status::Internal("abandoned");
  }
}

TEST(ClusterShutdownTest, DestructionWhileRequestsQueuedDrainsEveryPromise) {
  FailPointGuard guard;
  TrainedBundle& b = Bundle();
  DispatchGate gate;
  ParkNextBatchOn(gate);
  ServeCluster::Options options = FastOptions();
  options.replica.queue_capacity = 8;
  ServeCluster* cluster = new ServeCluster(b.servable, options);

  // The worker pops the first request and parks before running it.
  std::vector<std::future<StatusOr<Prediction>>> accepted;
  accepted.push_back(cluster->Submit(b.dataset.graph(0)));
  gate.AwaitParked();
  // Five more pile up behind the parked batch.
  for (int i = 1; i <= 5; ++i) {
    accepted.push_back(cluster->Submit(b.dataset.graph(i)));
  }

  // Destroy the cluster on another thread while the batch is parked: the
  // destructor blocks joining the parked worker, so the object stays valid
  // until the gate opens below. Until shutdown begins, a submit is queued
  // (or bounced off the full queue); from then on it is refused with a
  // permanent FailedPrecondition.
  std::thread destroyer([cluster] { delete cluster; });
  // Failures below break out instead of returning: the gate must open or
  // the destroyer never finishes.
  Status refused;
  const auto watchdog = std::chrono::steady_clock::now() + kWatchdog;
  for (int i = 0; refused.ok(); ++i) {
    if (std::chrono::steady_clock::now() > watchdog) {
      ADD_FAILURE() << "shutdown never refused a submit";
      break;
    }
    std::future<StatusOr<Prediction>> f =
        cluster->Submit(b.dataset.graph(6 + i % 8));
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      accepted.push_back(std::move(f));
      continue;
    }
    StatusOr<Prediction> r = f.get();
    if (!r.ok() && r.status().code() == StatusCode::kFailedPrecondition) {
      refused = r.status();
    } else if (r.ok() ||
               r.status().code() != StatusCode::kResourceExhausted) {
      ADD_FAILURE() << "unexpected answer while the worker is parked: "
                    << r.status().ToString();
      break;
    }
    std::this_thread::yield();
  }
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(IsRetryable(refused.code()));

  // The parked batch finishes and the queued requests drain: every accepted
  // future gets a model answer.
  gate.Open();
  destroyer.join();
  for (auto& f : accepted) {
    StatusOr<Prediction> r = ResolvedValue(f);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(ClusterShutdownTest, SweepAnswersRequestsStrandedOnACrashedReplica) {
  // A worker that died without a supervisor to recover it strands its
  // parked batch and its queue; destruction must still answer all of them
  // (Unavailable), never drop a promise.
  FailPointGuard guard;
  TrainedBundle& b = Bundle();
  ServeCluster::Options options = FastOptions();
  options.supervision.enabled = false;
  auto cluster = std::make_unique<ServeCluster>(b.servable, options);
  FailPointRegistry::Instance().Enable("serve.replica.crash",
                                       FailPointSpec::Once());

  std::vector<std::future<StatusOr<Prediction>>> stranded;
  stranded.push_back(cluster->Submit(b.dataset.graph(0)));
  const auto watchdog = std::chrono::steady_clock::now() + kWatchdog;
  while (!cluster->replica(0).worker_exited()) {
    ASSERT_LT(std::chrono::steady_clock::now(), watchdog) << "never crashed";
    std::this_thread::yield();
  }
  for (int i = 1; i <= 4; ++i) {
    stranded.push_back(cluster->Submit(b.dataset.graph(i)));
  }

  cluster.reset();
  for (auto& f : stranded) {
    StatusOr<Prediction> r = ResolvedValue(f);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << r.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Degradation

TEST(DegradedModeTest, FallbackAnswersWithMajorityClassWhenModelPathFails) {
  FailPointGuard guard;
  TrainedBundle& b = Bundle();
  ServeCluster::Options options = FastOptions();
  options.replica.enable_degraded = true;
  ServeCluster cluster(b.servable, options);

  FailPointRegistry::Instance().Enable("serve.preprocess",
                                       FailPointSpec::Always());
  auto f = cluster.Submit(b.dataset.graph(0));
  StatusOr<Prediction> result = MustResolve(f);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().source, PredictionSource::kFallback);
  EXPECT_EQ(result.value().label, b.majority_label);

  EXPECT_EQ(cluster.metrics().degraded_fallback(), 1);
  EXPECT_EQ(cluster.metrics().degraded(), 1);
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kDegraded), 1);
}

TEST(DegradedModeTest, StaleCacheAnswerPreferredOverFallback) {
  FailPointGuard guard;
  TrainedBundle& b = Bundle();
  ServeCluster::Options options = FastOptions();
  options.cache_capacity = 64;
  options.replica.enable_degraded = true;
  ServeCluster cluster(b.servable, options);

  // Warm the cache with a healthy answer.
  const graph::Graph& g = b.dataset.graph(0);
  StatusOr<Prediction> warm = cluster.Submit(g).get();
  ASSERT_TRUE(warm.ok());

  // Now an injected cache outage (once) makes admission miss, and the
  // forward pass fails — degraded mode falls back to the (by then healthy
  // again) cache entry instead of the class prior.
  FailPointRegistry::Instance().Enable("serve.cache.lookup",
                                       FailPointSpec::Once());
  FailPointRegistry::Instance().Enable("serve.forward",
                                       FailPointSpec::Always());
  auto f = cluster.Submit(g);
  StatusOr<Prediction> stale = MustResolve(f);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale.value().source, PredictionSource::kStaleCache);
  EXPECT_EQ(stale.value().label, warm.value().label);
  EXPECT_EQ(cluster.metrics().degraded_stale(), 1);
  EXPECT_EQ(cluster.metrics().degraded_fallback(), 0);
}

TEST(DegradedModeTest, DisabledByDefaultSurfacesTypedError) {
  FailPointGuard guard;
  TrainedBundle& b = Bundle();
  ServeCluster cluster(b.servable, FastOptions());

  FailPointRegistry::Instance().Enable("serve.preprocess",
                                       FailPointSpec::Always());
  auto f = cluster.Submit(b.dataset.graph(0));
  StatusOr<Prediction> result = MustResolve(f);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("serve.preprocess"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kError), 1);
}

// ---------------------------------------------------------------------------
// ServeMetrics outcome accounting under mixed dispositions

TEST(ServeMetricsOutcomeTest, MixedOutcomesSumToSubmissions) {
  FailPointGuard guard;
  TrainedBundle& b = Bundle();

  DispatchGate gate;
  ParkNextBatchOn(gate);

  // Queue capacity 2 with the fair-share watermark at 0.5: admission arms
  // once more than one request is queued.
  ServeCluster::Options options = FastOptions();
  options.replica.queue_capacity = 2;
  options.fair_share_watermark = 0.5;
  options.replica.enable_degraded = true;
  ServeCluster cluster(b.servable, options);

  int64_t submitted = 0;
  std::vector<std::future<StatusOr<Prediction>>> pending;

  // Phase 1 (shed): the default tenant's request is popped and parked (the
  // queue is empty again). Two tenants now hold requests, so "noisy"'s fair
  // share is 2 / 2 = 1: its first two requests are admitted below the
  // watermark, its third — backlog 2 > 1, two in flight — is shed.
  pending.push_back(cluster.Submit(b.dataset.graph(0)));
  ++submitted;
  gate.AwaitParked();
  RequestOptions noisy;
  noisy.tenant = "noisy";
  pending.push_back(cluster.Submit(b.dataset.graph(1), noisy));
  ++submitted;
  pending.push_back(cluster.Submit(b.dataset.graph(2), noisy));
  ++submitted;
  pending.push_back(cluster.Submit(b.dataset.graph(3), noisy));  // shed
  ++submitted;
  gate.Open();
  for (auto& f : pending) (void)MustResolve(f);
  pending.clear();
  cluster.Drain();

  // Phase 2 (ok): a few healthy requests.
  for (int i = 0; i < 3; ++i) {
    StatusOr<Prediction> r = cluster.Submit(b.dataset.graph(i)).get();
    ++submitted;
    EXPECT_TRUE(r.ok());
  }

  // Phase 3 (deadline): already expired at admission.
  RequestOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto f = cluster.Submit(b.dataset.graph(0), expired);
  ++submitted;
  (void)MustResolve(f);

  // Phase 4 (degraded): one injected preprocessing fault.
  FailPointRegistry::Instance().Enable("serve.preprocess",
                                       FailPointSpec::Once());
  StatusOr<Prediction> degraded = cluster.Submit(b.dataset.graph(3)).get();
  ++submitted;
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.value().source, PredictionSource::kFallback);

  const serve::ServeMetrics& m = cluster.metrics();
  // Exactly one outcome per submission — the accounting invariant.
  EXPECT_EQ(m.total_outcomes(), submitted);
  int64_t sum = 0;
  for (int i = 0; i < serve::kNumServeOutcomes; ++i) {
    sum += m.outcome_count(static_cast<ServeOutcome>(i));
  }
  EXPECT_EQ(sum, submitted);
  EXPECT_EQ(m.outcome_count(ServeOutcome::kOk), 6);  // 3 queued + 3 healthy
  EXPECT_EQ(m.outcome_count(ServeOutcome::kShed), 1);
  EXPECT_EQ(m.outcome_count(ServeOutcome::kDeadlineExceeded), 1);
  EXPECT_EQ(m.outcome_count(ServeOutcome::kDegraded), 1);
  EXPECT_EQ(m.outcome_count(ServeOutcome::kRejected), 0);
  EXPECT_EQ(m.outcome_count(ServeOutcome::kError), 0);

  // Percentiles of every stage are order statistics: monotone by rank.
  for (const char* stage : {"queue", "preprocess", "forward", "total"}) {
    serve::LatencySummary latency = m.Latency(stage);
    if (latency.count == 0) continue;
    EXPECT_LE(latency.p50, latency.p95) << stage;
    EXPECT_LE(latency.p95, latency.p99) << stage;
    EXPECT_LE(latency.p99, latency.max) << stage;
    EXPECT_GE(latency.p50, 0.0) << stage;
  }
}

// ---------------------------------------------------------------------------
// Chaos acceptance: saturating producer + >=10% preprocessing faults

TEST(ChaosTest, EveryFutureResolvesUnderInjectedPreprocessFaults) {
  FailPointGuard guard;
  TrainedBundle& b = Bundle();
  ServeCluster cluster(b.servable, FastOptions());

  // 15% injected preprocessing faults, deterministic stream.
  FailPointRegistry::Instance().Enable(
      "serve.preprocess", FailPointSpec::Probability(0.15, 1234));

  constexpr int kRounds = 3;
  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int round = 0; round < kRounds; ++round) {
    for (const graph::Graph& g : b.dataset.graphs()) {
      futures.push_back(cluster.Submit(g));  // saturating: never waits
    }
  }
  const int64_t submitted = static_cast<int64_t>(futures.size());

  int64_t ok = 0, unavailable = 0;
  for (auto& f : futures) {
    StatusOr<Prediction> result = MustResolve(f);
    if (result.ok()) {
      ++ok;
    } else {
      // Typed, attributed, retryable: never a bare crash or a hang.
      ASSERT_EQ(result.status().code(), StatusCode::kUnavailable)
          << result.status().ToString();
      ASSERT_NE(result.status().message().find("serve.preprocess"),
                std::string::npos)
          << result.status().ToString();
      EXPECT_TRUE(IsRetryable(result.status().code()));
      ++unavailable;
    }
  }
  cluster.Drain();

  EXPECT_EQ(ok + unavailable, submitted);
  EXPECT_GT(unavailable, 0);  // the fault stream actually fired
  EXPECT_GT(ok, 0);           // ... and did not take the service down
  const serve::ServeMetrics& m = cluster.metrics();
  EXPECT_EQ(m.total_outcomes(), submitted);
  EXPECT_EQ(m.outcome_count(ServeOutcome::kOk), ok);
  EXPECT_EQ(m.outcome_count(ServeOutcome::kError), unavailable);
  EXPECT_GT(
      FailPointRegistry::Instance().triggers("serve.preprocess"), 0);
}

TEST(ChaosTest, RegistryLoadFaultIsTypedAndRecoverable) {
  FailPointGuard guard;
  TrainedBundle& b = Bundle();
  auto path = std::filesystem::temp_directory_path() /
              "resilience_test_registry.bin";
  ASSERT_TRUE(nn::SaveParameters(b.model->Params(), path.string()).ok());

  serve::ModelRegistry registry;
  FailPointRegistry::Instance().Enable("serve.registry.load",
                                       FailPointSpec::Once());
  Status s = registry.Load("m", b.dataset, b.config, path.string());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(registry.size(), 0u);  // failed load leaves no broken servable

  // The fault was transient; the retried load succeeds.
  ASSERT_TRUE(registry.Load("m", b.dataset, b.config, path.string()).ok());
  EXPECT_EQ(registry.size(), 1u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace deepmap
