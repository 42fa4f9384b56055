// Dynamic-graph serving: ClassifyDelta must answer with logits bit-identical
// to a fresh Classify of the mutated graph, erase no cache entry (unrelated
// and pre-delta entries survive), hit the cache on a revert or undo, and
// account every delta in the deepmap_serve_dynamic_* counters; the store's
// incrementally maintained key must always equal KeyFor of its snapshot.
// A miss's recorded latency counts from ClassifyDelta's entry, like a hit's.
// Answers are byte-compared against the offline DeepMapModel::Forward of the
// mutated graph, through clusters of one and of four replicas.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/deepmap.h"
#include "datasets/registry.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "nn/model.h"
#include "obs/metrics.h"
#include "offline_prediction.h"
#include "serve/cluster.h"
#include "serve/dynamic_graphs.h"
#include "serve/prediction_cache.h"

namespace deepmap {
namespace {

using graph::EdgeUpdate;
using serve::Prediction;
using serve::ServeCluster;

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

ServeCluster::Options SmallClusterOptions(size_t num_replicas = 1,
                                          size_t cache_capacity = 64) {
  ServeCluster::Options o;
  o.num_replicas = num_replicas;
  o.replica.num_threads = 2;
  o.cache_capacity = cache_capacity;
  return o;
}

/// The training stack's answer for `g`: DeepMapModel::Forward over the
/// served preprocessor's dense input.
Prediction Offline(const graph::Graph& g) {
  TrainedBundle& b = Bundle();
  StatusOr<nn::Tensor> input = b.servable->preprocessor().Preprocess(g);
  DEEPMAP_CHECK(input.ok());
  return OfflinePrediction(*b.model, input.value());
}

/// A base graph with an edge to play with: vertex labels drawn from the
/// training alphabet so preprocessing succeeds.
graph::Graph BaseGraph() {
  return graph::Graph::FromEdges(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, {0, 1, 0, 1, 0});
}

TEST(DynamicServeTest, DeltaLogitsBitIdenticalToFreshClassify) {
  TrainedBundle& b = Bundle();
  for (size_t replicas : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(replicas);
    ServeCluster cluster(b.servable, SmallClusterOptions(replicas));
    ASSERT_TRUE(cluster.RegisterDynamicGraph("g", BaseGraph()).ok());

    std::vector<EdgeUpdate> deltas = {
        EdgeUpdate::Insert(0, 2), EdgeUpdate::Insert(1, 4),
        EdgeUpdate::Remove(1, 2), EdgeUpdate::Insert(0, 4),
        EdgeUpdate::Remove(0, 2)};
    graph::Graph shadow = BaseGraph();
    for (const EdgeUpdate& u : deltas) {
      auto via_delta = cluster.ClassifyDelta("g", {u});
      ASSERT_TRUE(via_delta.ok()) << via_delta.status().ToString();

      if (u.insert) {
        ASSERT_TRUE(shadow.AddEdge(u.u, u.v));
      } else {
        ASSERT_TRUE(shadow.RemoveEdge(u.u, u.v));
      }
      // Bit-identical probabilities: the miss path runs the served
      // pipeline, and hits replay a prediction that itself came from it.
      ExpectSameBytes(via_delta.value(), Offline(shadow));
    }
    EXPECT_EQ(cluster.metrics().dynamic_updates(), 5);
  }
}

TEST(DynamicServeTest, ExactInvalidationPreservesUnrelatedEntries) {
  TrainedBundle& b = Bundle();
  ServeCluster cluster(b.servable, SmallClusterOptions());
  ASSERT_TRUE(cluster.RegisterDynamicGraph("g", BaseGraph()).ok());

  // Warm the cache with unrelated graphs.
  const int kUnrelated = 4;
  for (int i = 0; i < kUnrelated; ++i) {
    ASSERT_TRUE(cluster.Submit(b.dataset.graph(i)).get().ok());
  }
  // And with the registered graph's own pre-delta structure (a miss, so
  // this is the model's fresh answer for it).
  auto pre_delta = cluster.Submit(BaseGraph()).get();
  ASSERT_TRUE(pre_delta.ok());
  ExpectSameBytes(pre_delta.value(), Offline(BaseGraph()));
  const size_t warmed = cluster.cache().size();
  EXPECT_GE(warmed, 1u);

  // The delta inserts the post-delta result and erases nothing: every
  // unrelated entry survives (previously the serving layer would Clear()
  // the whole cache on any mutation), and so does the pre-delta entry.
  ASSERT_TRUE(cluster.ClassifyDelta("g", {EdgeUpdate::Insert(0, 2)}).ok());
  EXPECT_EQ(cluster.cache().size(), warmed + 1);

  // The unrelated graphs are still hits.
  const int64_t hits_before = cluster.cache().hits();
  for (int i = 0; i < kUnrelated; ++i) {
    ASSERT_TRUE(cluster.Submit(b.dataset.graph(i)).get().ok());
  }
  EXPECT_EQ(cluster.cache().hits(), hits_before + kUnrelated);

  // The pre-delta structure's entry was kept (its exact key still names
  // that graph): classifying it again hits and returns the fresh answer's
  // bytes.
  const int64_t misses_before = cluster.cache().misses();
  auto again = cluster.Submit(BaseGraph()).get();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cluster.cache().misses(), misses_before);
  EXPECT_EQ(cluster.cache().hits(), hits_before + kUnrelated + 1);
  ExpectSameBytes(again.value(), pre_delta.value());
}

TEST(DynamicServeTest, DeltaThenRevertIsIncrementalHit) {
  TrainedBundle& b = Bundle();
  ServeCluster cluster(b.servable, SmallClusterOptions());
  ASSERT_TRUE(cluster.RegisterDynamicGraph("g", BaseGraph()).ok());

  // Warm the current structure, then apply a delta whose net effect is the
  // identity (insert + revert in one atomic batch): the pre- and post-delta
  // keys coincide, so nothing is invalidated and the answer is an
  // incremental cache hit — no forward pass.
  ASSERT_TRUE(cluster.Submit(BaseGraph()).get().ok());
  ASSERT_TRUE(cluster
                  .ClassifyDelta("g", {EdgeUpdate::Insert(0, 2),
                                       EdgeUpdate::Remove(0, 2)})
                  .ok());
  EXPECT_EQ(cluster.metrics().dynamic_updates(), 2);
  EXPECT_EQ(cluster.metrics().dynamic_incremental_hits(), 1);
  EXPECT_EQ(cluster.metrics().dynamic_full_recomputes(), 0);

  // A structure-changing delta misses (computes and warms the new entry);
  // an empty delta is then a pure cache probe of the current structure and
  // hits the entry the miss path just warmed.
  ASSERT_TRUE(cluster.ClassifyDelta("g", {EdgeUpdate::Insert(0, 2)}).ok());
  EXPECT_EQ(cluster.metrics().dynamic_full_recomputes(), 1);
  ASSERT_TRUE(cluster.ClassifyDelta("g", {}).ok());
  EXPECT_EQ(cluster.metrics().dynamic_incremental_hits(), 2);
}

TEST(DynamicServeTest, ErrorsLeaveRegisteredGraphUntouched) {
  TrainedBundle& b = Bundle();
  ServeCluster cluster(b.servable, SmallClusterOptions());
  ASSERT_TRUE(cluster.RegisterDynamicGraph("g", BaseGraph()).ok());
  EXPECT_EQ(cluster.RegisterDynamicGraph("g", BaseGraph()).code(),
            StatusCode::kFailedPrecondition);  // duplicate id

  auto missing = cluster.ClassifyDelta("nope", {EdgeUpdate::Insert(0, 2)});
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Invalid delta (second update re-inserts an existing edge): atomic
  // rejection, graph unchanged, nothing counted as an update.
  auto bad = cluster.ClassifyDelta(
      "g", {EdgeUpdate::Insert(0, 2), EdgeUpdate::Insert(0, 1)});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster.metrics().dynamic_updates(), 0);
  auto snapshot = cluster.dynamic_graphs().Snapshot("g");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot.value().HasEdge(0, 2));

  ASSERT_TRUE(cluster.UnregisterDynamicGraph("g").ok());
  EXPECT_EQ(cluster.UnregisterDynamicGraph("g").code(), StatusCode::kNotFound);
}

TEST(DynamicServeTest, StoreDeltasRaceUnregisterSafely) {
  // Regression: Find() used to hand back a raw pointer after dropping the
  // store mutex, so an Unregister landing before the delta locked the entry
  // destroyed the entry under it. Entries are shared_ptr-owned now; this
  // hammers the window (register/unregister churn against concurrent
  // deltas/snapshots) and must be clean under TSan.
  serve::DynamicGraphStore store(2);
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&store, &done] {
      while (!done.load(std::memory_order_relaxed)) {
        // NotFound (unregistered) and InvalidArgument (edge present) are
        // both fine; the point is the entry must stay alive while in use.
        (void)store.ApplyDelta("g", {EdgeUpdate::Insert(0, 2)});
        (void)store.Snapshot("g");
        (void)store.CacheKey("g");
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(store.Register("g", BaseGraph()).ok());
    ASSERT_TRUE(store.Unregister("g").ok());
  }
  done.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(store.size(), 0u);
}

TEST(DynamicServeTest, StoreKeyEqualsKeyForSnapshotUnderRandomDeltas) {
  // The store's per-edge key update must never drift from a from-scratch
  // KeyFor of the graph it describes: random delta batches over several
  // registered graphs, a third of them ending in an invalid update so the
  // whole batch rolls back.
  serve::DynamicGraphStore store(2);
  Rng rng(0xde17a);
  const std::vector<std::string> ids = {"a", "b", "c"};
  for (const std::string& id : ids) {
    ASSERT_TRUE(store.Register(id, BaseGraph()).ok());
  }
  for (int step = 0; step < 300; ++step) {
    const std::string& id = ids[rng.Index(ids.size())];
    graph::Graph shadow = store.Snapshot(id).value();
    const std::string before = store.CacheKey(id).value();
    ASSERT_EQ(before, serve::PredictionCache::KeyFor(shadow, 2));

    std::vector<EdgeUpdate> batch;
    const int size = static_cast<int>(rng.Index(4));  // empty batches too
    for (int i = 0; i < size; ++i) {
      graph::Vertex u = 0, v = 0;
      while (u == v) {
        u = static_cast<graph::Vertex>(rng.Index(5));
        v = static_cast<graph::Vertex>(rng.Index(5));
      }
      if (shadow.HasEdge(u, v)) {
        shadow.RemoveEdge(u, v);
        batch.push_back(EdgeUpdate::Remove(u, v));
      } else {
        shadow.AddEdge(u, v);
        batch.push_back(EdgeUpdate::Insert(u, v));
      }
    }
    const bool poisoned = rng.Index(3) == 0;
    if (poisoned) batch.push_back(EdgeUpdate::Insert(0, 5));  // out of range

    StatusOr<serve::DeltaResult> delta = store.ApplyDelta(id, batch);
    if (poisoned) {
      ASSERT_EQ(delta.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(store.CacheKey(id).value(), before);
    } else {
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      EXPECT_EQ(delta.value().old_key, before);
      EXPECT_EQ(delta.value().new_key,
                serve::PredictionCache::KeyFor(shadow, 2));
      EXPECT_TRUE(delta.value().graph == shadow);
    }
    const graph::Graph snapshot = store.Snapshot(id).value();
    EXPECT_EQ(store.CacheKey(id).value(),
              serve::PredictionCache::KeyFor(snapshot, 2));
  }
}

TEST(DynamicServeTest, ClusterClassifyDeltaMatchesEngine) {
  TrainedBundle& b = Bundle();
  for (size_t replicas : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(replicas);
    ServeCluster cluster(b.servable, SmallClusterOptions(replicas));
    ASSERT_TRUE(cluster.RegisterDynamicGraph("g", BaseGraph()).ok());
    graph::Graph shadow = BaseGraph();
    ASSERT_TRUE(shadow.AddEdge(0, 3));

    auto via_delta = cluster.ClassifyDelta("g", {EdgeUpdate::Insert(0, 3)});
    ASSERT_TRUE(via_delta.ok()) << via_delta.status().ToString();
    ExpectSameBytes(via_delta.value(), Offline(shadow));
    EXPECT_EQ(cluster.metrics().dynamic_updates(), 1);
    EXPECT_EQ(cluster.metrics().dynamic_full_recomputes(), 1);

    // An empty delta probes the current structure: the cluster cache serves
    // the entry the miss path above just warmed.
    auto probe = cluster.ClassifyDelta("g", {});
    ASSERT_TRUE(probe.ok());
    EXPECT_EQ(cluster.metrics().dynamic_incremental_hits(), 1);
    ExpectSameBytes(probe.value(), Offline(shadow));
  }
}

TEST(DynamicServeTest, ClusterUndoDeltaHitsPreDeltaEntry) {
  TrainedBundle& b = Bundle();
  for (size_t replicas : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(replicas);
    ServeCluster cluster(b.servable, SmallClusterOptions(replicas));
    ASSERT_TRUE(cluster.RegisterDynamicGraph("g", BaseGraph()).ok());

    // Two structure-changing deltas: each misses and warms its own entry.
    graph::Graph shadow = BaseGraph();
    ASSERT_TRUE(shadow.AddEdge(0, 3));
    ASSERT_TRUE(cluster.ClassifyDelta("g", {EdgeUpdate::Insert(0, 3)}).ok());
    ASSERT_TRUE(cluster.ClassifyDelta("g", {EdgeUpdate::Insert(1, 4)}).ok());
    EXPECT_EQ(cluster.metrics().dynamic_full_recomputes(), 2);
    EXPECT_EQ(cluster.cache().size(), 2u);

    // Undoing the second delta returns to the structure the first one left:
    // the entry that delta warmed is still there, so the undo is an
    // incremental hit, with the model's answer for that graph to the byte.
    auto undo = cluster.ClassifyDelta("g", {EdgeUpdate::Remove(1, 4)});
    ASSERT_TRUE(undo.ok()) << undo.status().ToString();
    EXPECT_EQ(cluster.metrics().dynamic_incremental_hits(), 1);
    EXPECT_EQ(cluster.metrics().dynamic_full_recomputes(), 2);
    EXPECT_EQ(cluster.cache().size(), 2u);
    ExpectSameBytes(undo.value(), Offline(shadow));
  }
}

/// Arms "serve.cache.lookup" to fire on every lookup, stalling it for
/// 100 ms: the lookup then misses, and the miss path's recorded latency has
/// to contain the stall. Disarmed on destruction.
class SlowLookupMiss {
 public:
  static constexpr double kStallUs = 100000.0;

  SlowLookupMiss() {
    FailPointSpec spec = FailPointSpec::Always();
    spec.on_trigger = [] {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(kStallUs)));
    };
    FailPointRegistry::Instance().Enable("serve.cache.lookup", spec);
  }
  ~SlowLookupMiss() {
    FailPointRegistry::Instance().Disable("serve.cache.lookup");
  }
};

TEST(DynamicServeTest, ClusterDeltaMissLatencyCountsFromEntry) {
  TrainedBundle& b = Bundle();
  ServeCluster cluster(b.servable, SmallClusterOptions());
  ASSERT_TRUE(cluster.RegisterDynamicGraph("g", BaseGraph()).ok());
  {
    SlowLookupMiss slow;
    ASSERT_TRUE(cluster.ClassifyDelta("g", {EdgeUpdate::Insert(0, 3)}).ok());
  }
  EXPECT_EQ(cluster.metrics().dynamic_full_recomputes(), 1);
  const serve::LatencySummary total = cluster.metrics().Latency("total");
  ASSERT_EQ(total.count, 1);
  EXPECT_GE(total.max, SlowLookupMiss::kStallUs);
  EXPECT_GE(cluster.metrics().Latency("queue").max, SlowLookupMiss::kStallUs);
}

TEST(DynamicServeTest, DynamicCountersAppearInPrometheusScrape) {
  TrainedBundle& b = Bundle();
  obs::MetricsRegistry registry;
  ServeCluster::Options options = SmallClusterOptions();
  options.metrics_registry = &registry;
  ServeCluster cluster(b.servable, options);
  ASSERT_TRUE(cluster.RegisterDynamicGraph("g", BaseGraph()).ok());
  ASSERT_TRUE(cluster.ClassifyDelta("g", {EdgeUpdate::Insert(0, 2)}).ok());

  std::ostringstream scrape;
  registry.WritePrometheusText(scrape);
  const std::string text = scrape.str();
  EXPECT_NE(text.find("deepmap_serve_dynamic_updates_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("deepmap_serve_dynamic_full_recomputes_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("deepmap_serve_dynamic_incremental_hits_total 0"),
            std::string::npos);
}

}  // namespace
}  // namespace deepmap
