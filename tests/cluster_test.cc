// Tests for ServeCluster: served-vs-offline prediction equivalence at 4
// replicas and in the N=1 degenerate case, a 256-request burst absorbed by
// 4 replicas with every answer offline-equal, deterministic work stealing
// under skewed load, continuous batching and its max_batch cap, per-tenant
// fair-share admission, cluster outcome accounting, and wakeup of an idle
// worker by every Submit. Races are pinned with fail-point gates, never
// sleeps.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/deepmap.h"
#include "datasets/registry.h"
#include "nn/model.h"
#include "offline_prediction.h"
#include "serve/cluster.h"

namespace deepmap {
namespace {

using serve::Prediction;
using serve::RequestOptions;
using serve::ServeCluster;
using serve::ServeOutcome;

constexpr auto kWatchdog = std::chrono::seconds(20);

/// Leaves the process-wide fail-point registry clean no matter how a test
/// exits, so one test's faults can never leak into the next.
struct FailPointGuard {
  ~FailPointGuard() { FailPointRegistry::Instance().DisableAll(); }
};

/// A gate that a fail-point hook can park a replica worker on. Once opened
/// it stays open, so late evaluations (e.g. during shutdown drain) never
/// deadlock.
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
    return b;
  }();
  return *bundle;
}

/// Cluster options for dispatch-mechanics tests: caching off so every
/// request travels the full queue/pipeline path deterministically.
ServeCluster::Options UncachedClusterOptions(size_t num_replicas) {
  ServeCluster::Options o;
  o.num_replicas = num_replicas;
  o.cache_capacity = 0;
  o.replica.num_threads = 1;
  return o;
}

// ---------------------------------------------------------------------------
// Prediction equivalence

TEST(ServeClusterTest, PredictionsBitIdenticalToSingleEngine) {
  TrainedBundle& b = Bundle();

  // Caching off: every request runs the compute path this test pins. The
  // reference is the training stack's forward pass for the same input.
  ServeCluster cluster(b.servable, UncachedClusterOptions(4));

  const int n = b.dataset.size();
  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < n; ++i) {
    futures.push_back(cluster.Submit(b.dataset.graph(i)));
  }
  for (int i = 0; i < n; ++i) {
    StatusOr<Prediction> c = MustResolve(futures[i]);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    // Replicas share one immutable CompiledModel: which replica served a
    // request must be unobservable in its probabilities, bit for bit.
    SCOPED_TRACE(i);
    ExpectSameBytes(c.value(),
                    OfflinePrediction(*b.model, b.pipeline->inputs()[i]));
  }
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), n);
  EXPECT_EQ(cluster.metrics().total_outcomes(), n);
  EXPECT_EQ(cluster.cluster_metrics().dispatched(), n);
}

TEST(ServeClusterTest, SingleReplicaDegenerateMatchesEngine) {
  TrainedBundle& b = Bundle();
  ServeCluster cluster(b.servable, UncachedClusterOptions(1));

  const int n = std::min(b.dataset.size(), 12);
  for (int i = 0; i < n; ++i) {
    std::future<StatusOr<Prediction>> c = cluster.Submit(b.dataset.graph(i));
    StatusOr<Prediction> from_cluster = MustResolve(c);
    ASSERT_TRUE(from_cluster.ok());
    SCOPED_TRACE(i);
    ExpectSameBytes(from_cluster.value(),
                    OfflinePrediction(*b.model, b.pipeline->inputs()[i]));
  }
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), n);
  EXPECT_EQ(cluster.cluster_metrics().stolen_requests(), 0);
}

TEST(ServeClusterTest, FourReplicasAbsorbBurstWithOfflineAnswers) {
  TrainedBundle& b = Bundle();
  // A 256-request burst is twice what one replica's queue holds; four
  // replicas hold all of it, so every request is admitted and answered.
  ServeCluster::Options options = UncachedClusterOptions(4);
  options.replica.queue_capacity = 128;
  options.replica.max_batch = 16;
  ServeCluster cluster(b.servable, options);

  constexpr int kBurst = 256;
  const int n = b.dataset.size();
  std::vector<Prediction> offline;
  for (int i = 0; i < n; ++i) {
    offline.push_back(OfflinePrediction(*b.model, b.pipeline->inputs()[i]));
  }
  std::vector<std::future<StatusOr<Prediction>>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(
        cluster.Submit(b.dataset.graph(i % n),
                       RequestOptions::WithDeadline(std::chrono::seconds(5))));
  }
  for (int i = 0; i < kBurst; ++i) {
    StatusOr<Prediction> served = MustResolve(futures[i]);
    ASSERT_TRUE(served.ok()) << i << ": " << served.status().ToString();
    SCOPED_TRACE(i);
    ExpectSameBytes(served.value(), offline[i % n]);
  }
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), kBurst);
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kShed), 0);
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kRejected), 0);
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kDeadlineExceeded),
            0);
  EXPECT_EQ(cluster.metrics().total_outcomes(), kBurst);
}

TEST(ServeClusterTest, CacheHitBypassesReplicas) {
  TrainedBundle& b = Bundle();
  ServeCluster::Options options;
  options.num_replicas = 2;
  options.replica.num_threads = 1;
  ServeCluster cluster(b.servable, options);

  std::future<StatusOr<Prediction>> first = cluster.Submit(b.dataset.graph(0));
  ASSERT_TRUE(MustResolve(first).ok());
  cluster.Drain();
  const int64_t dispatched = cluster.cluster_metrics().dispatched();

  std::future<StatusOr<Prediction>> second =
      cluster.Submit(b.dataset.graph(0));
  ASSERT_TRUE(MustResolve(second).ok());
  EXPECT_EQ(cluster.metrics().cache_hits(), 1);
  // The hit resolved on the submitter's thread: nothing new was dispatched.
  EXPECT_EQ(cluster.cluster_metrics().dispatched(), dispatched);
}

TEST(ServeClusterTest, NegativeVertexLabelIsRejectedAndServingContinues) {
  TrainedBundle& b = Bundle();
  ServeCluster::Options options;
  options.num_replicas = 2;
  options.replica.num_threads = 1;
  ServeCluster cluster(b.servable, options);

  graph::Graph bad = b.dataset.graph(0);
  bad.SetLabel(0, -1);
  std::future<StatusOr<Prediction>> rejected = cluster.Submit(bad);
  StatusOr<Prediction> result = MustResolve(rejected);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  std::future<StatusOr<Prediction>> next = cluster.Submit(b.dataset.graph(1));
  EXPECT_TRUE(MustResolve(next).ok());
  cluster.Drain();
}

// ---------------------------------------------------------------------------
// Work stealing

TEST(ServeClusterTest, IdleReplicaStealsFromParkedSibling) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster cluster(b.servable, UncachedClusterOptions(2));

  // Park whichever replica picks up the bait request; the failpoint is
  // one-shot, so the surviving replica keeps running batches.
  DispatchGate gate;
  FailPointSpec spec = FailPointSpec::Once();
  spec.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", spec);

  std::future<StatusOr<Prediction>> bait =
      cluster.SubmitToReplica(0, b.dataset.graph(0), RequestOptions{});
  gate.AwaitParked();
  // The bait itself may have been stolen by the then-idle sibling before
  // replica 0 woke, so measure steals from here on.
  const int64_t stolen_baseline = cluster.cluster_metrics().stolen_requests();

  // Load both queues. The parked replica cannot pop its share, so the live
  // one must steal every request queued on the parked side to resolve them.
  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(
        cluster.SubmitToReplica(0, b.dataset.graph(1 + i), RequestOptions{}));
    futures.push_back(
        cluster.SubmitToReplica(1, b.dataset.graph(4 + i), RequestOptions{}));
  }
  for (auto& f : futures) {
    StatusOr<Prediction> result = MustResolve(f);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  // One worker is still parked; the six requests were resolved anyway, and
  // exactly the parked replica's three arrived via steals.
  EXPECT_EQ(gate.parked.load(), 1);
  EXPECT_EQ(cluster.cluster_metrics().stolen_requests() - stolen_baseline, 3);
  EXPECT_GE(cluster.cluster_metrics().steals(), 1);

  gate.Open();
  ASSERT_TRUE(MustResolve(bait).ok());
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), 7);
}

TEST(ServeClusterTest, StealingDisabledLeavesBacklogToOwner) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options = UncachedClusterOptions(2);
  options.replica.enable_work_stealing = false;
  ServeCluster cluster(b.servable, options);

  DispatchGate gate;
  FailPointSpec spec = FailPointSpec::Once();
  spec.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", spec);

  std::future<StatusOr<Prediction>> bait =
      cluster.SubmitToReplica(0, b.dataset.graph(0), RequestOptions{});
  gate.AwaitParked();

  // Requests behind the parked replica stay put until it resumes; the
  // sibling serves its own queue but never steals.
  std::future<StatusOr<Prediction>> behind_parked =
      cluster.SubmitToReplica(0, b.dataset.graph(1), RequestOptions{});
  std::future<StatusOr<Prediction>> on_live =
      cluster.SubmitToReplica(1, b.dataset.graph(2), RequestOptions{});
  // One of the two resolves while the other is pinned behind the gate —
  // but we cannot know which replica parked, so just require both resolve
  // after opening, with zero steals throughout.
  gate.Open();
  ASSERT_TRUE(MustResolve(behind_parked).ok());
  ASSERT_TRUE(MustResolve(on_live).ok());
  ASSERT_TRUE(MustResolve(bait).ok());
  cluster.Drain();
  EXPECT_EQ(cluster.cluster_metrics().steals(), 0);
  EXPECT_EQ(cluster.cluster_metrics().stolen_requests(), 0);
}

// ---------------------------------------------------------------------------
// Continuous batching

TEST(ServeClusterTest, ContinuousBatchingAbsorbsArrivalsIntoInflightBatch) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster cluster(b.servable, UncachedClusterOptions(1));

  DispatchGate gate;
  FailPointSpec spec = FailPointSpec::Once();
  spec.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", spec);

  std::future<StatusOr<Prediction>> bait =
      cluster.Submit(b.dataset.graph(0));
  gate.AwaitParked();

  // These arrive while the bait batch is (about to be) in flight. With the
  // worker parked they can only be served by joining that batch.
  std::vector<std::future<StatusOr<Prediction>>> late;
  for (int i = 1; i <= 5; ++i) {
    late.push_back(cluster.Submit(b.dataset.graph(i)));
  }
  gate.Open();
  ASSERT_TRUE(MustResolve(bait).ok());
  for (auto& f : late) {
    StatusOr<Prediction> result = MustResolve(f);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  cluster.Drain();
  // All six went through one dispatch: 1 popped + 5 admitted mid-batch.
  EXPECT_EQ(cluster.cluster_metrics().continuous_admits(), 5);
  EXPECT_EQ(cluster.metrics().num_batches(), 1);
  EXPECT_DOUBLE_EQ(cluster.metrics().mean_batch_size(), 6.0);
  EXPECT_EQ(cluster.cluster_metrics().replica_requests(0), 6);
  EXPECT_EQ(cluster.cluster_metrics().replica_batches(0), 1);
}

TEST(ServeClusterTest, ContinuousBatchingOffDispatchesSeparateBatches) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options = UncachedClusterOptions(1);
  options.replica.continuous_batching = false;
  ServeCluster cluster(b.servable, options);

  DispatchGate gate;
  FailPointSpec spec = FailPointSpec::Once();
  spec.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", spec);

  std::future<StatusOr<Prediction>> bait = cluster.Submit(b.dataset.graph(0));
  gate.AwaitParked();
  std::vector<std::future<StatusOr<Prediction>>> late;
  for (int i = 1; i <= 5; ++i) {
    late.push_back(cluster.Submit(b.dataset.graph(i)));
  }
  gate.Open();
  ASSERT_TRUE(MustResolve(bait).ok());
  for (auto& f : late) ASSERT_TRUE(MustResolve(f).ok());
  cluster.Drain();
  EXPECT_EQ(cluster.cluster_metrics().continuous_admits(), 0);
  // Bait ran alone; the five laggards came in at least one later batch.
  EXPECT_GE(cluster.metrics().num_batches(), 2);
}

TEST(ServeClusterTest, BatchesNeverExceedMaxBatch) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options = UncachedClusterOptions(1);
  options.replica.max_batch = 4;
  ServeCluster cluster(b.servable, options);

  DispatchGate gate;
  FailPointSpec spec = FailPointSpec::Once();
  spec.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", spec);

  std::vector<std::future<StatusOr<Prediction>>> futures;
  futures.push_back(cluster.Submit(b.dataset.graph(0)));
  gate.AwaitParked();
  for (int i = 1; i < 10; ++i) {
    futures.push_back(cluster.Submit(b.dataset.graph(i)));
  }
  gate.Open();
  for (auto& f : futures) ASSERT_TRUE(MustResolve(f).ok());
  cluster.Drain();
  // The parked batch tops up to the cap (1 popped + 3 admitted); the six
  // left are popped 4 then 2.
  const std::map<int, int64_t> expected = {{2, 1}, {4, 2}};
  EXPECT_EQ(cluster.metrics().batch_size_histogram(), expected);
  EXPECT_EQ(cluster.cluster_metrics().continuous_admits(), 3);
}

// ---------------------------------------------------------------------------
// Per-tenant fair-share admission

TEST(ServeClusterTest, FairShareCapsNoisyTenantAdmitsQuietOne) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options = UncachedClusterOptions(1);
  options.replica.queue_capacity = 8;
  options.fair_share_watermark = 0.5;
  ServeCluster cluster(b.servable, options);

  // Park the only replica so queue depths are exact while we probe
  // admission decisions.
  DispatchGate gate;
  FailPointSpec spec = FailPointSpec::Once();
  spec.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", spec);
  std::future<StatusOr<Prediction>> bait = cluster.Submit(b.dataset.graph(0));
  gate.AwaitParked();

  // Capacity 8, watermark 0.5: admission arms once more than 4 requests are
  // queued. Two active tenants ("" via the bait + "noisy") make the fair
  // share 8 / 2 = 4, so "noisy" is capped at its 5th in-flight request
  // (admitted at backlog 4, shed from backlog 5 on).
  RequestOptions noisy;
  noisy.tenant = "noisy";
  std::vector<std::future<StatusOr<Prediction>>> admitted;
  std::vector<Status> shed_statuses;
  for (int i = 0; i < 8; ++i) {
    std::future<StatusOr<Prediction>> f =
        cluster.Submit(b.dataset.graph(1 + i), noisy);
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      StatusOr<Prediction> r = f.get();
      ASSERT_FALSE(r.ok());
      shed_statuses.push_back(r.status());
    } else {
      admitted.push_back(std::move(f));
    }
  }
  EXPECT_EQ(admitted.size(), 5u);
  ASSERT_EQ(shed_statuses.size(), 3u);
  for (const Status& s : shed_statuses) {
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
    EXPECT_NE(s.message().find("fair-share"), std::string::npos)
        << s.ToString();
  }
  EXPECT_EQ(cluster.tenant_inflight("noisy"), 5);
  EXPECT_EQ(cluster.cluster_metrics().tenant_sheds(), 3);
  EXPECT_EQ(cluster.metrics().shed(), 3);

  // A tenant below its share is admitted even though admission is armed.
  RequestOptions quiet;
  quiet.tenant = "quiet";
  std::future<StatusOr<Prediction>> quiet_future =
      cluster.Submit(b.dataset.graph(9), quiet);
  EXPECT_EQ(quiet_future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "quiet tenant was rejected while under its fair share";
  EXPECT_EQ(cluster.tenant_inflight("quiet"), 1);

  gate.Open();
  ASSERT_TRUE(MustResolve(bait).ok());
  for (auto& f : admitted) ASSERT_TRUE(MustResolve(f).ok());
  ASSERT_TRUE(MustResolve(quiet_future).ok());
  cluster.Drain();

  // Slots release on completion and outcomes account for every submission:
  // 1 bait + 5 noisy + 1 quiet OK, 3 shed.
  EXPECT_EQ(cluster.tenant_inflight("noisy"), 0);
  EXPECT_EQ(cluster.tenant_inflight("quiet"), 0);
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), 7);
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kShed), 3);
  EXPECT_EQ(cluster.metrics().total_outcomes(), 10);
}

TEST(ServeClusterTest, SerialSubmitsNeverSleepInTheQueue) {
  // One replica, caching off, one request in flight at a time: every
  // Submit must wake the idle worker. A request enqueued after the worker
  // found its queue empty but before it blocked, with the notify landing in
  // that gap, would wait for the next Submit to wake the worker; the bound
  // below catches such a stranded request. Stranded futures are collected,
  // not waited on: only a later Submit or the cluster's shutdown (which
  // wakes every worker and drains its queue) answers them.
  TrainedBundle& b = Bundle();
  constexpr int kRequests = 1000;
  constexpr auto kResolveBound = std::chrono::seconds(2);
  int stranded = 0;
  std::vector<std::future<StatusOr<Prediction>>> late;
  {
    ServeCluster cluster(b.servable, UncachedClusterOptions(1));
    for (int i = 0; i < kRequests; ++i) {
      std::future<StatusOr<Prediction>> f =
          cluster.Submit(b.dataset.graph(i % b.dataset.size()));
      if (f.wait_for(kResolveBound) != std::future_status::ready) {
        ++stranded;
        late.push_back(std::move(f));
        continue;
      }
      ASSERT_TRUE(f.get().ok());
    }
  }
  EXPECT_EQ(stranded, 0);
  for (auto& f : late) ASSERT_TRUE(MustResolve(f).ok());
}

TEST(ServeClusterTest, QueueOverflowRejectsWithResourceExhausted) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options = UncachedClusterOptions(1);
  options.replica.queue_capacity = 2;
  ServeCluster cluster(b.servable, options);

  DispatchGate gate;
  FailPointSpec spec = FailPointSpec::Once();
  spec.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", spec);
  std::future<StatusOr<Prediction>> bait = cluster.Submit(b.dataset.graph(0));
  gate.AwaitParked();

  std::vector<std::future<StatusOr<Prediction>>> queued;
  queued.push_back(cluster.Submit(b.dataset.graph(1)));
  queued.push_back(cluster.Submit(b.dataset.graph(2)));
  std::future<StatusOr<Prediction>> overflow =
      cluster.Submit(b.dataset.graph(3));
  StatusOr<Prediction> rejected = MustResolve(overflow);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cluster.metrics().rejected(), 1);

  gate.Open();
  ASSERT_TRUE(MustResolve(bait).ok());
  for (auto& f : queued) ASSERT_TRUE(MustResolve(f).ok());
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().total_outcomes(), 4);
}

}  // namespace
}  // namespace deepmap
