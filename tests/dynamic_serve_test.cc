// Dynamic-graph serving: ClassifyDelta must answer with logits bit-identical
// to a fresh Classify of the mutated graph, erase exactly the pre-delta
// cache entry (unrelated entries survive), hit the cache on a revert, and
// account every delta in the deepmap_serve_dynamic_* counters; the store's
// incrementally maintained key must always equal KeyFor of its snapshot.
// Covers both the single InferenceEngine and the ServeCluster front ends.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/deepmap.h"
#include "datasets/registry.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "nn/model.h"
#include "obs/metrics.h"
#include "serve/cluster.h"
#include "serve/dynamic_graphs.h"
#include "serve/engine.h"
#include "serve/prediction_cache.h"

namespace deepmap {
namespace {

using graph::EdgeUpdate;
using serve::InferenceEngine;
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

InferenceEngine::Options SmallEngineOptions(size_t cache_capacity = 64) {
  InferenceEngine::Options o;
  o.num_threads = 2;
  o.cache_capacity = cache_capacity;
  return o;
}

/// A base graph with an edge to play with: vertex labels drawn from the
/// training alphabet so preprocessing succeeds.
graph::Graph BaseGraph() {
  return graph::Graph::FromEdges(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, {0, 1, 0, 1, 0});
}

TEST(DynamicServeTest, DeltaLogitsBitIdenticalToFreshClassify) {
  TrainedBundle& b = Bundle();
  InferenceEngine engine(b.servable, SmallEngineOptions());
  ASSERT_TRUE(engine.RegisterDynamicGraph("g", BaseGraph()).ok());

  // A fresh engine (cold cache) classifies the mutated graph directly.
  InferenceEngine oracle(b.servable, SmallEngineOptions(0));

  std::vector<EdgeUpdate> deltas = {
      EdgeUpdate::Insert(0, 2), EdgeUpdate::Insert(1, 4),
      EdgeUpdate::Remove(1, 2), EdgeUpdate::Insert(0, 4),
      EdgeUpdate::Remove(0, 2)};
  graph::Graph shadow = BaseGraph();
  for (const EdgeUpdate& u : deltas) {
    auto via_delta = engine.ClassifyDelta("g", {u});
    ASSERT_TRUE(via_delta.ok()) << via_delta.status().ToString();

    if (u.insert) {
      ASSERT_TRUE(shadow.AddEdge(u.u, u.v));
    } else {
      ASSERT_TRUE(shadow.RemoveEdge(u.u, u.v));
    }
    auto fresh = oracle.Classify(shadow);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(via_delta.value().label, fresh.value().label);
    // Bit-identical probabilities: the miss path runs the identical
    // pipeline, and hits replay a prediction that itself came from it.
    EXPECT_EQ(via_delta.value().probabilities, fresh.value().probabilities);
  }
  EXPECT_EQ(engine.metrics().dynamic_updates(), 5);
}

TEST(DynamicServeTest, ExactInvalidationPreservesUnrelatedEntries) {
  TrainedBundle& b = Bundle();
  InferenceEngine engine(b.servable, SmallEngineOptions());
  ASSERT_TRUE(engine.RegisterDynamicGraph("g", BaseGraph()).ok());

  // Warm the cache with unrelated graphs.
  const int kUnrelated = 4;
  for (int i = 0; i < kUnrelated; ++i) {
    ASSERT_TRUE(engine.Classify(b.dataset.graph(i)).ok());
  }
  // And with the registered graph's own pre-delta structure.
  ASSERT_TRUE(engine.Classify(BaseGraph()).ok());
  const size_t warmed = engine.cache().size();
  EXPECT_GE(warmed, 1u);

  // The delta must erase exactly the pre-delta entry; the post-delta result
  // is inserted, and every unrelated entry survives (previously the serving
  // layer would Clear() the whole cache on any mutation).
  ASSERT_TRUE(engine.ClassifyDelta("g", {EdgeUpdate::Insert(0, 2)}).ok());
  EXPECT_EQ(engine.cache().size(), warmed);  // -1 pre-delta +1 fresh

  // The unrelated graphs are still hits.
  const int64_t hits_before = engine.cache().hits();
  for (int i = 0; i < kUnrelated; ++i) {
    ASSERT_TRUE(engine.Classify(b.dataset.graph(i)).ok());
  }
  EXPECT_EQ(engine.cache().hits(), hits_before + kUnrelated);

  // The pre-delta structure was invalidated: classifying it again misses.
  const int64_t misses_before = engine.cache().misses();
  ASSERT_TRUE(engine.Classify(BaseGraph()).ok());
  EXPECT_EQ(engine.cache().misses(), misses_before + 1);
}

TEST(DynamicServeTest, DeltaThenRevertIsIncrementalHit) {
  TrainedBundle& b = Bundle();
  InferenceEngine engine(b.servable, SmallEngineOptions());
  ASSERT_TRUE(engine.RegisterDynamicGraph("g", BaseGraph()).ok());

  // Warm the current structure, then apply a delta whose net effect is the
  // identity (insert + revert in one atomic batch): the pre- and post-delta
  // keys coincide, so nothing is invalidated and the answer is an
  // incremental cache hit — no forward pass.
  ASSERT_TRUE(engine.Classify(BaseGraph()).ok());
  ASSERT_TRUE(engine
                  .ClassifyDelta("g", {EdgeUpdate::Insert(0, 2),
                                       EdgeUpdate::Remove(0, 2)})
                  .ok());
  EXPECT_EQ(engine.metrics().dynamic_updates(), 2);
  EXPECT_EQ(engine.metrics().dynamic_incremental_hits(), 1);
  EXPECT_EQ(engine.metrics().dynamic_full_recomputes(), 0);

  // A structure-changing delta misses (computes and warms the new entry);
  // an empty delta is then a pure cache probe of the current structure and
  // hits the entry the miss path just warmed.
  ASSERT_TRUE(engine.ClassifyDelta("g", {EdgeUpdate::Insert(0, 2)}).ok());
  EXPECT_EQ(engine.metrics().dynamic_full_recomputes(), 1);
  ASSERT_TRUE(engine.ClassifyDelta("g", {}).ok());
  EXPECT_EQ(engine.metrics().dynamic_incremental_hits(), 2);
}

TEST(DynamicServeTest, ErrorsLeaveRegisteredGraphUntouched) {
  TrainedBundle& b = Bundle();
  InferenceEngine engine(b.servable, SmallEngineOptions());
  ASSERT_TRUE(engine.RegisterDynamicGraph("g", BaseGraph()).ok());
  EXPECT_EQ(engine.RegisterDynamicGraph("g", BaseGraph()).code(),
            StatusCode::kFailedPrecondition);  // duplicate id

  auto missing = engine.ClassifyDelta("nope", {EdgeUpdate::Insert(0, 2)});
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Invalid delta (second update re-inserts an existing edge): atomic
  // rejection, graph unchanged, nothing counted as an update.
  auto bad = engine.ClassifyDelta(
      "g", {EdgeUpdate::Insert(0, 2), EdgeUpdate::Insert(0, 1)});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.metrics().dynamic_updates(), 0);
  auto snapshot = engine.dynamic_graphs().Snapshot("g");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot.value().HasEdge(0, 2));

  ASSERT_TRUE(engine.UnregisterDynamicGraph("g").ok());
  EXPECT_EQ(engine.UnregisterDynamicGraph("g").code(), StatusCode::kNotFound);
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
  ServeCluster::Options options;
  options.num_replicas = 2;
  options.cache_capacity = 64;
  options.replica.num_threads = 1;
  ServeCluster cluster(b.servable, options);
  ASSERT_TRUE(cluster.RegisterDynamicGraph("g", BaseGraph()).ok());

  InferenceEngine oracle(Bundle().servable, SmallEngineOptions(0));
  graph::Graph shadow = BaseGraph();
  ASSERT_TRUE(shadow.AddEdge(0, 3));

  auto via_delta = cluster.ClassifyDelta("g", {EdgeUpdate::Insert(0, 3)});
  ASSERT_TRUE(via_delta.ok()) << via_delta.status().ToString();
  auto fresh = oracle.Classify(shadow);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(via_delta.value().label, fresh.value().label);
  EXPECT_EQ(via_delta.value().probabilities, fresh.value().probabilities);
  EXPECT_EQ(cluster.metrics().dynamic_updates(), 1);
  EXPECT_EQ(cluster.metrics().dynamic_full_recomputes(), 1);

  // An empty delta probes the current structure: the cluster cache serves
  // the entry the miss path above just warmed.
  ASSERT_TRUE(cluster.ClassifyDelta("g", {}).ok());
  EXPECT_EQ(cluster.metrics().dynamic_incremental_hits(), 1);
}

TEST(DynamicServeTest, DynamicCountersAppearInPrometheusScrape) {
  TrainedBundle& b = Bundle();
  obs::MetricsRegistry registry;
  InferenceEngine::Options options = SmallEngineOptions();
  options.metrics_registry = &registry;
  InferenceEngine engine(b.servable, options);
  ASSERT_TRUE(engine.RegisterDynamicGraph("g", BaseGraph()).ok());
  ASSERT_TRUE(engine.ClassifyDelta("g", {EdgeUpdate::Insert(0, 2)}).ok());

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
