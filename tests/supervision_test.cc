// Tests for the self-healing serving layer: watchdog hang/crash detection,
// exactly-once recovery and re-dispatch of a failed replica's requests,
// poison-pill quarantine, restart-with-backoff and rejoin, health-aware
// work stealing, the Drain-vs-Submit ordering contract, cache-counter
// continuity across a replica restart, and versioned hot model reload
// (shadow validation, atomic swap, rollback, circuit breaker).
//
// Failures are injected through fail points ("serve.replica.hang",
// "serve.replica.crash", "serve.registry.reload", "serve.reload.corrupt")
// and recovery is driven either by the background watchdog with
// millisecond knobs or synchronously via Supervisor::ScanOnce — no test
// depends on a sleep for correctness.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/deepmap.h"
#include "datasets/registry.h"
#include "nn/model.h"
#include "nn/serialization.h"
#include "serve/cluster.h"
#include "serve/supervisor.h"

namespace deepmap {
namespace {

using serve::Prediction;
using serve::PredictionSource;
using serve::ReplicaHealth;
using serve::RequestOptions;
using serve::ServeCluster;
using serve::ServeOutcome;
using serve::Supervisor;

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
  void AwaitParked(int n = 1) {
    while (parked.load() < n) std::this_thread::yield();
  }
};

/// Blocks until `f` resolves or the watchdog fires; a timeout means a
/// promise was abandoned, which the serving stack must never do.
StatusOr<Prediction> MustResolve(std::future<StatusOr<Prediction>>& f) {
  EXPECT_EQ(f.wait_for(kWatchdog), std::future_status::ready)
      << "future abandoned";
  return f.get();
}

/// Spins (with a short sleep) until `pred` holds or kWatchdog elapses.
template <typename Pred>
bool PollUntil(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + kWatchdog;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::filesystem::path TempFile(const char* name) {
  return std::filesystem::temp_directory_path() / name;
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

/// Base options for supervision tests: caching off (every request travels
/// the full queue/pipeline path), one pool thread per replica.
ServeCluster::Options UncachedClusterOptions(size_t num_replicas) {
  ServeCluster::Options o;
  o.num_replicas = num_replicas;
  o.cache_capacity = 0;
  o.replica.num_threads = 1;
  return o;
}

/// Millisecond-scale watchdog knobs so detection and restart happen within
/// a few scan ticks instead of the production defaults.
Supervisor::Options FastSupervision() {
  Supervisor::Options s;
  s.check_interval = std::chrono::milliseconds(1);
  s.hang_timeout = std::chrono::milliseconds(20);
  s.restart_backoff_initial = std::chrono::milliseconds(1);
  return s;
}

// ---------------------------------------------------------------------------
// Watchdog: hang detection, re-dispatch, restart, rejoin

TEST(SupervisorTest, HungReplicaIsRecoveredRestartedAndRejoins) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options = UncachedClusterOptions(2);
  options.replica.enable_work_stealing = false;
  options.supervision = FastSupervision();
  ServeCluster cluster(b.servable, options);

  // The first batch popped anywhere stalls its worker; stealing is off and
  // every request below targets replica 0, so replica 0 hangs.
  FailPointRegistry::Instance().Enable("serve.replica.hang",
                                       FailPointSpec::Once());

  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(
        cluster.SubmitToReplica(0, b.dataset.graph(i), RequestOptions{}));
  }

  // Every request resolves successfully despite the hang: the watchdog
  // confiscates the parked batch, drains the queue, and re-dispatches all
  // of it to replica 1. Exactly-once is structural — a double completion
  // would throw std::future_error inside the worker.
  for (auto& f : futures) {
    StatusOr<Prediction> r = MustResolve(f);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().source, PredictionSource::kModel);
  }
  EXPECT_EQ(cluster.health_metrics().hangs(), 1);
  EXPECT_EQ(cluster.health_metrics().crashes(), 0);
  EXPECT_EQ(cluster.health_metrics().redispatched(), 4);
  EXPECT_EQ(cluster.health_metrics().quarantined(), 0);

  // The hung worker is restarted after backoff and rejoins dispatch.
  ASSERT_TRUE(PollUntil(
      [&] { return cluster.health_metrics().restarts() >= 1; }));
  ASSERT_TRUE(PollUntil([&] {
    return cluster.replica(0).health() == ReplicaHealth::kHealthy;
  }));
  EXPECT_EQ(cluster.health_metrics().replica_restarts(0), 1);
  EXPECT_EQ(cluster.health_metrics().unhealthy_replicas(), 0);

  std::future<StatusOr<Prediction>> rejoin =
      cluster.SubmitToReplica(0, b.dataset.graph(5), RequestOptions{});
  ASSERT_TRUE(MustResolve(rejoin).ok());

  cluster.Drain();
  // 4 recovered + 1 rejoin, every submission accounted for exactly once.
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), 5);
  EXPECT_EQ(cluster.metrics().total_outcomes(), 5);
}

TEST(SupervisorTest, CrashedReplicaIsDetectedByBackgroundWatchdog) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options = UncachedClusterOptions(2);
  options.replica.enable_work_stealing = false;
  // The parked bait's batch must not absorb the requests queued behind it.
  options.replica.continuous_batching = false;
  options.supervision = FastSupervision();
  ServeCluster cluster(b.servable, options);

  // Park replica 0 mid-batch on a bait request, so both requests below are
  // queued before its next pop, whichever moment the watchdog recovers at:
  // that pop crashes and takes (or strands) exactly those two.
  DispatchGate gate;
  FailPointSpec park = FailPointSpec::Once();
  park.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", park);
  std::vector<std::future<StatusOr<Prediction>>> futures;
  futures.push_back(
      cluster.SubmitToReplica(0, b.dataset.graph(0), RequestOptions{}));
  gate.AwaitParked();

  FailPointRegistry::Instance().Enable("serve.replica.crash",
                                       FailPointSpec::Once());
  for (int i = 1; i < 3; ++i) {
    futures.push_back(
        cluster.SubmitToReplica(0, b.dataset.graph(i), RequestOptions{}));
  }
  gate.Open();
  for (auto& f : futures) {
    StatusOr<Prediction> r = MustResolve(f);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(cluster.health_metrics().crashes(), 1);
  EXPECT_EQ(cluster.health_metrics().hangs(), 0);
  EXPECT_EQ(cluster.health_metrics().redispatched(), 2);

  ASSERT_TRUE(PollUntil(
      [&] { return cluster.health_metrics().restarts() >= 1; }));
  std::future<StatusOr<Prediction>> rejoin =
      cluster.SubmitToReplica(0, b.dataset.graph(4), RequestOptions{});
  ASSERT_TRUE(MustResolve(rejoin).ok());
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), 4);
  EXPECT_EQ(cluster.metrics().total_outcomes(), 4);
}

// ---------------------------------------------------------------------------
// Poison-pill quarantine

TEST(SupervisorTest, PoisonPillIsQuarantinedWithDegradedAnswer) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options = UncachedClusterOptions(2);
  options.replica.enable_work_stealing = false;
  options.supervision = FastSupervision();
  // Zero tolerated failures: the first recovery quarantines the request
  // instead of handing it to (and possibly killing) another replica.
  options.supervision.max_request_failures = 0;
  ServeCluster cluster(b.servable, options);

  FailPointRegistry::Instance().Enable("serve.replica.hang",
                                       FailPointSpec::Once());
  std::future<StatusOr<Prediction>> pill =
      cluster.SubmitToReplica(0, b.dataset.graph(0), RequestOptions{});

  // The pill resolves — degraded, not errored, and never re-dispatched.
  StatusOr<Prediction> r = MustResolve(pill);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().source, PredictionSource::kFallback);
  EXPECT_EQ(cluster.health_metrics().quarantined(), 1);
  EXPECT_EQ(cluster.health_metrics().redispatched(), 0);
  EXPECT_EQ(cluster.metrics().degraded_fallback(), 1);

  // The replica still heals: quarantine is per-request, not per-replica.
  ASSERT_TRUE(PollUntil(
      [&] { return cluster.health_metrics().restarts() >= 1; }));
  std::future<StatusOr<Prediction>> rejoin =
      cluster.SubmitToReplica(0, b.dataset.graph(1), RequestOptions{});
  ASSERT_TRUE(MustResolve(rejoin).ok());
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kDegraded), 1);
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), 1);
  EXPECT_EQ(cluster.metrics().total_outcomes(), 2);
}

// ---------------------------------------------------------------------------
// Health-aware work stealing (manual supervision via ScanOnce)

TEST(SupervisorTest, StealSkipsUnhealthySiblingAndScanOnceRecoversIt) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options = UncachedClusterOptions(2);
  options.replica.enable_work_stealing = true;
  // Continuous batching off: the gate below parks each worker inside its
  // batch, and an opened gate must not slurp the crash-bait request into
  // the in-flight batch (the crash fail point fires on a fresh pop).
  options.replica.continuous_batching = false;
  options.supervision.enabled = false;  // driven synchronously below
  options.supervision.restart_backoff_initial = std::chrono::milliseconds(1);
  ServeCluster cluster(b.servable, options);

  // Occupy BOTH workers: each parks mid-batch at the dispatch gate, so the
  // crash fail point armed below cannot be consumed by either current
  // batch.
  DispatchGate gate;
  FailPointSpec park = FailPointSpec::Always();
  park.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", park);
  std::future<StatusOr<Prediction>> bait0 = cluster.Submit(b.dataset.graph(0));
  gate.AwaitParked(1);
  std::future<StatusOr<Prediction>> bait1 = cluster.Submit(b.dataset.graph(1));
  gate.AwaitParked(2);
  FailPointRegistry::Instance().Disable("serve.cluster.batch");
  // A bait may legitimately have been stolen on its way to a worker: the
  // idle worker steals a bait queued behind its busy (or not yet woken)
  // sibling, so up to two steals land before both workers are parked. Only
  // steals after this point concern the unhealthy replica.
  const int64_t steals_parked = cluster.cluster_metrics().steals();
  const int64_t stolen_parked = cluster.cluster_metrics().stolen_requests();

  // Replica 1 is marked unhealthy and will crash on its next pop. The
  // request queued on it must neither be stolen by the healthy sibling nor
  // be lost with the dead worker.
  cluster.mutable_replica(1)->set_health(ReplicaHealth::kUnhealthy);
  FailPointRegistry::Instance().Enable("serve.replica.crash",
                                       FailPointSpec::Once());
  std::future<StatusOr<Prediction>> stranded =
      cluster.SubmitToReplica(1, b.dataset.graph(2), RequestOptions{});

  gate.Open();
  ASSERT_TRUE(MustResolve(bait0).ok());
  ASSERT_TRUE(MustResolve(bait1).ok());
  // Only replica 1's worker can reach the queued request (the sibling must
  // skip an unhealthy victim), so it is the one that pops and crashes.
  ASSERT_TRUE(PollUntil([&] { return cluster.replica(1).worker_exited(); }));
  EXPECT_EQ(stranded.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "request on an unhealthy replica was served by a steal";
  EXPECT_EQ(cluster.cluster_metrics().steals() - steals_parked, 0);
  EXPECT_EQ(cluster.cluster_metrics().stolen_requests() - stolen_parked, 0);

  // One synchronous scan recovers the stranded request onto the healthy
  // sibling.
  cluster.supervisor().ScanOnce();
  EXPECT_EQ(cluster.health_metrics().crashes(), 1);
  EXPECT_EQ(cluster.health_metrics().redispatched(), 1);
  StatusOr<Prediction> r = MustResolve(stranded);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Further scans restart the worker once the backoff elapses; the replica
  // rejoins and serves again.
  ASSERT_TRUE(PollUntil([&] {
    cluster.supervisor().ScanOnce();
    return cluster.health_metrics().restarts() >= 1;
  }));
  EXPECT_EQ(cluster.replica(1).health(), ReplicaHealth::kHealthy);
  EXPECT_EQ(cluster.health_metrics().unhealthy_replicas(), 0);
  std::future<StatusOr<Prediction>> rejoin =
      cluster.SubmitToReplica(1, b.dataset.graph(3), RequestOptions{});
  ASSERT_TRUE(MustResolve(rejoin).ok());
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), 4);
  EXPECT_EQ(cluster.metrics().total_outcomes(), 4);
}

// ---------------------------------------------------------------------------
// Drain vs concurrent Submit

TEST(SupervisorTest, DrainRejectsConcurrentSubmitWithTypedStatus) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options = UncachedClusterOptions(1);
  options.supervision.enabled = false;
  ServeCluster cluster(b.servable, options);

  DispatchGate gate;
  FailPointSpec park = FailPointSpec::Once();
  park.on_trigger = [&gate] { gate.Park(); };
  FailPointRegistry::Instance().Enable("serve.cluster.batch", park);
  std::future<StatusOr<Prediction>> bait = cluster.Submit(b.dataset.graph(0));
  gate.AwaitParked();

  std::thread drainer([&cluster] { cluster.Drain(); });
  ASSERT_TRUE(PollUntil([&] { return cluster.draining() == 1; }));

  // While the drain is waiting on the in-flight bait, a new submission gets
  // a typed, retryable rejection instead of racing the drain accounting.
  std::future<StatusOr<Prediction>> during =
      cluster.Submit(b.dataset.graph(1));
  StatusOr<Prediction> rejected = MustResolve(during);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("draining"), std::string::npos)
      << rejected.status().ToString();

  gate.Open();
  ASSERT_TRUE(MustResolve(bait).ok());
  drainer.join();
  EXPECT_EQ(cluster.draining(), 0);

  // After Drain returns, submissions are admitted again.
  std::future<StatusOr<Prediction>> after = cluster.Submit(b.dataset.graph(2));
  ASSERT_TRUE(MustResolve(after).ok());
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), 2);
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kRejected), 1);
  EXPECT_EQ(cluster.metrics().total_outcomes(), 3);
}

// ---------------------------------------------------------------------------
// Cache continuity across a replica restart

TEST(SupervisorTest, CacheShardCountersStayConsistentAcrossReplicaRestart) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  ServeCluster::Options options;  // cache ON
  options.num_replicas = 2;
  options.replica.num_threads = 1;
  options.replica.enable_work_stealing = false;
  options.supervision.enabled = false;
  options.supervision.restart_backoff_initial = std::chrono::milliseconds(1);
  ServeCluster cluster(b.servable, options);
  const size_t shards_before = cluster.cache().num_shards();

  // Replica 0 crashes holding the first (cache-missing) request; recovery
  // re-dispatches it to replica 1, whose completion warms the cache.
  FailPointRegistry::Instance().Enable("serve.replica.crash",
                                       FailPointSpec::Once());
  std::future<StatusOr<Prediction>> first =
      cluster.SubmitToReplica(0, b.dataset.graph(0), RequestOptions{});
  ASSERT_TRUE(PollUntil([&] { return cluster.replica(0).worker_exited(); }));
  cluster.supervisor().ScanOnce();
  ASSERT_TRUE(MustResolve(first).ok());
  EXPECT_EQ(cluster.metrics().cache_misses(), 1);
  EXPECT_EQ(cluster.metrics().cache_hits(), 0);
  EXPECT_EQ(cluster.cache().size(), 1u);

  ASSERT_TRUE(PollUntil([&] {
    cluster.supervisor().ScanOnce();
    return cluster.health_metrics().restarts() >= 1;
  }));

  // The restarted replica sees the same shared cache: same shard count, a
  // hit on the recovered request's key, counters continuing (not reset)
  // from their pre-restart values.
  EXPECT_EQ(cluster.cache().num_shards(), shards_before);
  std::future<StatusOr<Prediction>> second =
      cluster.SubmitToReplica(0, b.dataset.graph(0), RequestOptions{});
  ASSERT_TRUE(MustResolve(second).ok());
  EXPECT_EQ(cluster.metrics().cache_hits(), 1);
  EXPECT_EQ(cluster.metrics().cache_misses(), 1);

  std::future<StatusOr<Prediction>> novel =
      cluster.SubmitToReplica(0, b.dataset.graph(1), RequestOptions{});
  ASSERT_TRUE(MustResolve(novel).ok());
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().cache_misses(), 2);
  EXPECT_EQ(cluster.cache().size(), 2u);
  EXPECT_EQ(cluster.metrics().total_outcomes(), 3);
}

// ---------------------------------------------------------------------------
// Versioned hot reload

TEST(HotReloadTest, ReloadSwapsAtomicallyAndNotifiesSubscribedCluster) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  auto path = TempFile("supervision_reload_swap.bin");
  ASSERT_TRUE(nn::SaveParameters(b.model->Params(), path.string()).ok());

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", b.dataset, b.config, path.string()).ok());
  std::shared_ptr<serve::ServableModel> v1 = registry.Get("m");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1);

  ServeCluster::Options options;
  options.num_replicas = 2;
  options.replica.num_threads = 1;
  ServeCluster cluster(v1, options);
  registry.Subscribe("m",
                     [&cluster](std::shared_ptr<serve::ServableModel> next) {
                       cluster.UpdateModel(std::move(next));
                     });

  // Warm the cache so the swap's invalidation is observable.
  std::future<StatusOr<Prediction>> warm = cluster.Submit(b.dataset.graph(0));
  ASSERT_TRUE(MustResolve(warm).ok());
  cluster.Drain();
  EXPECT_GE(cluster.cache().size(), 1u);

  serve::ModelRegistry::ReloadReport report;
  auto reloaded = registry.Reload("m", b.dataset, b.config, path.string(),
                                  serve::ModelRegistry::ReloadOptions{},
                                  &report);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value()->version(), 2);
  EXPECT_EQ(report.version, 2);
  EXPECT_GT(report.shadow_size, 0);
  // Identical weights: shadow validation must observe zero label flips.
  EXPECT_EQ(report.label_flips, 0);
  EXPECT_EQ(registry.reload_attempts(), 1);
  EXPECT_EQ(registry.reload_successes(), 1);
  EXPECT_EQ(registry.reload_rollbacks(), 0);

  // The subscriber fed the swap into the cluster: new batches serve v2, the
  // stale cache is gone, and the old servable handle stays valid for any
  // in-flight holder.
  EXPECT_EQ(registry.Get("m")->version(), 2);
  EXPECT_EQ(cluster.model()->version(), 2);
  EXPECT_EQ(cluster.health_metrics().model_swaps(), 1);
  EXPECT_EQ(cluster.cache().size(), 0u);
  EXPECT_EQ(v1->version(), 1);

  std::future<StatusOr<Prediction>> after = cluster.Submit(b.dataset.graph(0));
  ASSERT_TRUE(MustResolve(after).ok());
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().total_outcomes(), 2);
  std::filesystem::remove(path);
}

TEST(HotReloadTest, HotSwapUnderSustainedLoadDropsNoRequests) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  auto path = TempFile("supervision_reload_load.bin");
  ASSERT_TRUE(nn::SaveParameters(b.model->Params(), path.string()).ok());

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", b.dataset, b.config, path.string()).ok());
  std::shared_ptr<serve::ServableModel> v1 = registry.Get("m");
  ASSERT_NE(v1, nullptr);

  // Caching off: every request runs a batch on whichever servable its batch
  // pinned, so the swap lands genuinely under load.
  ServeCluster cluster(v1, UncachedClusterOptions(2));
  registry.Subscribe("m",
                     [&cluster](std::shared_ptr<serve::ServableModel> next) {
                       cluster.UpdateModel(std::move(next));
                     });

  const int n = b.dataset.size();
  std::vector<std::future<StatusOr<Prediction>>> futures;
  futures.reserve(60);
  for (int i = 0; i < 60; ++i) {
    futures.push_back(cluster.Submit(b.dataset.graph(i % n)));
    if (i == 30) {
      // Validated reload mid-burst; the subscriber swaps the cluster over
      // while earlier batches are still in flight on v1.
      auto reloaded =
          registry.Reload("m", b.dataset, b.config, path.string());
      ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    }
  }
  for (auto& f : futures) {
    StatusOr<Prediction> r = MustResolve(f);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  cluster.Drain();
  EXPECT_EQ(cluster.metrics().outcome_count(ServeOutcome::kOk), 60);
  EXPECT_EQ(cluster.metrics().total_outcomes(), 60);
  EXPECT_EQ(cluster.health_metrics().model_swaps(), 1);
  EXPECT_EQ(cluster.model()->version(), 2);
  EXPECT_EQ(v1->version(), 1);
  std::filesystem::remove(path);
}

TEST(HotReloadTest, ReloadRollsBackOnInjectedCorruption) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  auto path = TempFile("supervision_reload_corrupt.bin");
  ASSERT_TRUE(nn::SaveParameters(b.model->Params(), path.string()).ok());

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", b.dataset, b.config, path.string()).ok());

  FailPointRegistry::Instance().Enable("serve.reload.corrupt",
                                       FailPointSpec::Always());
  auto r = registry.Reload("m", b.dataset, b.config, path.string());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("corrupt"), std::string::npos)
      << r.status().ToString();

  // Rollback: the old version keeps serving, the rollback is counted, and
  // the breaker advanced but is not yet open (threshold default 3).
  EXPECT_EQ(registry.Get("m")->version(), 1);
  EXPECT_EQ(registry.reload_rollbacks(), 1);
  EXPECT_EQ(registry.reload_successes(), 0);
  EXPECT_FALSE(registry.breaker_open("m"));

  // With the corruption gone the next reload succeeds and resets the
  // breaker's failure streak.
  FailPointRegistry::Instance().DisableAll();
  auto healthy = registry.Reload("m", b.dataset, b.config, path.string());
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy.value()->version(), 2);
  std::filesystem::remove(path);
}

TEST(HotReloadTest, CircuitBreakerOpensFailsFastAndResets) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  auto path = TempFile("supervision_reload_breaker.bin");
  ASSERT_TRUE(nn::SaveParameters(b.model->Params(), path.string()).ok());

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", b.dataset, b.config, path.string()).ok());

  serve::ModelRegistry::ReloadOptions ro;
  ro.breaker_threshold = 2;
  FailPointRegistry::Instance().Enable("serve.registry.reload",
                                       FailPointSpec::Always());
  for (int i = 0; i < 2; ++i) {
    auto r = registry.Reload("m", b.dataset, b.config, path.string(), ro);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << i;
  }
  EXPECT_TRUE(registry.breaker_open("m"));
  EXPECT_EQ(registry.reload_rollbacks(), 2);

  // Open breaker fails fast — before touching the (now healthy) artifact.
  FailPointRegistry::Instance().DisableAll();
  auto fast = registry.Reload("m", b.dataset, b.config, path.string(), ro);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(fast.status().message().find("circuit breaker"),
            std::string::npos)
      << fast.status().ToString();
  EXPECT_EQ(registry.reload_breaker_rejections(), 1);
  EXPECT_EQ(registry.Get("m")->version(), 1);

  // Operator intervention: reset, then reload goes through.
  registry.ResetBreaker("m");
  EXPECT_FALSE(registry.breaker_open("m"));
  auto healthy = registry.Reload("m", b.dataset, b.config, path.string(), ro);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy.value()->version(), 2);
  std::filesystem::remove(path);
}

TEST(HotReloadTest, BreakerIgnoresCallerErrors) {
  TrainedBundle& b = Bundle();
  FailPointGuard guard;
  auto path = TempFile("supervision_reload_notfound.bin");
  ASSERT_TRUE(nn::SaveParameters(b.model->Params(), path.string()).ok());

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", b.dataset, b.config, path.string()).ok());
  // Reloading a name that was never registered is a caller error, not a
  // broken artifact: NotFound, no rollback counted, breaker untouched.
  auto r = registry.Reload("ghost", b.dataset, b.config, path.string());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.reload_rollbacks(), 0);
  EXPECT_FALSE(registry.breaker_open("ghost"));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace deepmap
