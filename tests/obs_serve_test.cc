// Observability-through-serving integration tests: ServeMetrics' exact
// percentiles (the NearestRankIndex regression suite), agreement between the
// retained-sample percentiles and the registry-histogram estimates, and the
// end-to-end invariant that every Submit increments exactly one stage
// histogram chain in the cluster's registry, and the WL dictionary gauge.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "core/deepmap.h"
#include "datasets/registry.h"
#include "nn/model.h"
#include "serve/cluster.h"

namespace deepmap {
namespace {

using serve::LatencySummary;
using serve::NearestRankIndex;
using serve::Prediction;
using serve::RequestTiming;
using serve::ServeCluster;
using serve::ServeMetrics;
using serve::ServeOutcome;

// ---------------------------------------------------------------------------
// NearestRankIndex / Summarize regression suite (the pre-fix Percentile()
// returned the max for p95 of 20 samples and re-sorted per quantile).

TEST(NearestRankIndexTest, TwentySamplesP95IsNineteenthSmallest) {
  // ceil(0.95 * 20) = 19 -> index 18. In binary 0.95 * 20 is slightly above
  // 19, so an unguarded ceil gives 20 -> index 19 (the max). This is the
  // regression the epsilon guard exists for.
  EXPECT_EQ(NearestRankIndex(20, 0.95), 18u);
}

TEST(NearestRankIndexTest, SmallSampleCounts) {
  // n=1: every quantile is the only sample.
  EXPECT_EQ(NearestRankIndex(1, 0.50), 0u);
  EXPECT_EQ(NearestRankIndex(1, 0.95), 0u);
  EXPECT_EQ(NearestRankIndex(1, 0.99), 0u);
  // n=2: median is the 1st sample (ceil(1.0) = 1), p95 the 2nd.
  EXPECT_EQ(NearestRankIndex(2, 0.50), 0u);
  EXPECT_EQ(NearestRankIndex(2, 0.95), 1u);
  // Extremes clamp into range.
  EXPECT_EQ(NearestRankIndex(5, 0.0), 0u);
  EXPECT_EQ(NearestRankIndex(5, 1.0), 4u);
  EXPECT_EQ(NearestRankIndex(0, 0.5), 0u);
}

TEST(NearestRankIndexTest, ClassicRanksAtRoundCounts) {
  EXPECT_EQ(NearestRankIndex(100, 0.50), 49u);
  EXPECT_EQ(NearestRankIndex(100, 0.95), 94u);
  EXPECT_EQ(NearestRankIndex(100, 0.99), 98u);
  // 10k samples: 0.99 * 10000 is fraction-free mathematically but not in
  // binary; the guard must hold at scale too.
  EXPECT_EQ(NearestRankIndex(10000, 0.99), 9899u);
}

TEST(ServeMetricsTest, PercentilesAreExactOrderStatistics) {
  ServeMetrics metrics;
  // Record 20..1 so sortedness cannot come from insertion order.
  for (int v = 20; v >= 1; --v) {
    RequestTiming timing;
    timing.queue_us = v;
    timing.preprocess_us = v;
    timing.forward_us = v;
    timing.total_us = v;
    metrics.RecordRequest(timing);
  }
  for (const char* stage : {"queue", "preprocess", "forward", "total"}) {
    LatencySummary s = metrics.Latency(stage);
    ASSERT_EQ(s.count, 20) << stage;
    EXPECT_DOUBLE_EQ(s.p50, 10.0) << stage;
    EXPECT_DOUBLE_EQ(s.p95, 19.0) << stage;  // pre-fix: 20 (the max)
    EXPECT_DOUBLE_EQ(s.p99, 20.0) << stage;
    EXPECT_DOUBLE_EQ(s.max, 20.0) << stage;
    EXPECT_DOUBLE_EQ(s.mean, 10.5) << stage;
  }
}

TEST(ServeMetricsTest, SingleSamplePinsAllPercentiles) {
  ServeMetrics metrics;
  RequestTiming timing;
  timing.total_us = 123.0;
  timing.cache_hit = true;  // total-only path
  metrics.RecordRequest(timing);
  LatencySummary s = metrics.Latency("total");
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.p50, 123.0);
  EXPECT_DOUBLE_EQ(s.p95, 123.0);
  EXPECT_DOUBLE_EQ(s.p99, 123.0);
  EXPECT_DOUBLE_EQ(s.max, 123.0);
}

TEST(ServeMetricsTest, EmptySummaryIsZero) {
  ServeMetrics metrics;
  LatencySummary s = metrics.Latency("total");
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

// ---------------------------------------------------------------------------
// ServeMetrics <-> registry wiring

TEST(ServeMetricsTest, CountersLiveInRegistry) {
  ServeMetrics metrics;
  RequestTiming hit;
  hit.cache_hit = true;
  hit.total_us = 5.0;
  metrics.RecordRequest(hit);
  metrics.RecordOutcome(ServeOutcome::kOk);
  RequestTiming miss;
  miss.total_us = 50.0;
  metrics.RecordRequest(miss);
  metrics.RecordOutcome(ServeOutcome::kOk);
  metrics.RecordBatch(3);
  metrics.RecordBatch(5);
  metrics.RecordQueueDepth(2);
  metrics.RecordQueueDepth(6);
  metrics.RecordShed();
  metrics.RecordDeadlineExceeded("preprocess");
  metrics.RecordDegradedStale();
  metrics.RecordRejected();

  const obs::MetricsRegistry& r = metrics.registry();
  EXPECT_EQ(metrics.cache_hits(), 1);
  EXPECT_EQ(metrics.cache_misses(), 1);
  EXPECT_DOUBLE_EQ(metrics.cache_hit_rate(), 0.5);
  EXPECT_EQ(metrics.num_batches(), 2);
  EXPECT_DOUBLE_EQ(metrics.mean_batch_size(), 4.0);
  EXPECT_EQ(metrics.max_queue_depth(), 6u);
  EXPECT_DOUBLE_EQ(metrics.mean_queue_depth(), 4.0);
  EXPECT_EQ(metrics.shed(), 1);
  EXPECT_EQ(metrics.deadline_exceeded(), 1);
  EXPECT_EQ(metrics.deadline_exceeded("preprocess"), 1);
  EXPECT_EQ(metrics.deadline_exceeded("forward"), 0);
  EXPECT_EQ(metrics.degraded_stale(), 1);
  EXPECT_EQ(metrics.rejected(), 1);
  // ok(2) + shed + deadline + degraded + rejected
  EXPECT_EQ(metrics.total_outcomes(), 6);

  EXPECT_TRUE(r.Has("deepmap_serve_cache_hits_total"));
  EXPECT_TRUE(r.Has("deepmap_serve_outcome_ok_total"));
  EXPECT_TRUE(r.Has("deepmap_serve_deadline_preprocess_total"));
  EXPECT_TRUE(r.Has("deepmap_serve_total_seconds"));

  // The scrape carries the same numbers (values in seconds for histograms).
  std::ostringstream os;
  metrics.registry().WritePrometheusText(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("deepmap_serve_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("deepmap_serve_outcome_ok_total 2"), std::string::npos);
  EXPECT_NE(text.find("deepmap_serve_total_seconds_count 2"),
            std::string::npos);
}

TEST(ServeMetricsTest, PrivateRegistriesDoNotShareCounts) {
  ServeMetrics a;
  ServeMetrics b;
  RequestTiming timing;
  timing.cache_hit = true;
  timing.total_us = 1.0;
  a.RecordRequest(timing);
  EXPECT_EQ(a.cache_hits(), 1);
  EXPECT_EQ(b.cache_hits(), 0);
}

TEST(ServeMetricsTest, InjectedRegistryAggregates) {
  obs::MetricsRegistry shared;
  ServeMetrics a(&shared);
  ServeMetrics b(&shared);
  RequestTiming timing;
  timing.cache_hit = true;
  timing.total_us = 1.0;
  a.RecordRequest(timing);
  b.RecordRequest(timing);
  EXPECT_EQ(a.cache_hits(), 2);  // same counter under both
  EXPECT_TRUE(shared.Has("deepmap_serve_cache_hits_total"));
}

TEST(ServeMetricsTest, BucketP95TracksExactP95) {
  ServeMetrics metrics;
  // Smooth latency sweep: 200 samples, 100us..10ms, multiplicative steps.
  std::vector<double> samples_us;
  double v = 100.0;
  for (int i = 0; i < 200; ++i) {
    samples_us.push_back(v);
    v *= 1.0234;
  }
  for (double us : samples_us) {
    RequestTiming timing;
    timing.cache_hit = true;  // total-only, keeps the test focused
    timing.total_us = us;
    metrics.RecordRequest(timing);
  }
  const double exact_p95 = metrics.Latency("total").p95;
  const obs::Histogram& h =
      metrics.registry().GetHistogram("deepmap_serve_total_seconds");
  const double bucket_p95_us = h.Snapshot().Quantile(0.95) * 1e6;
  // The acceptance bound from the issue: interpolated bucket percentiles
  // must track exact order statistics within 5% on smooth data.
  EXPECT_NEAR(bucket_p95_us, exact_p95, 0.05 * exact_p95);
}

// ---------------------------------------------------------------------------
// End-to-end: a served request stream drives the stage histogram chain.

struct ObsBundle {
  graph::GraphDataset dataset;
  core::DeepMapConfig config;
  std::unique_ptr<core::DeepMapPipeline> pipeline;
  std::unique_ptr<core::DeepMapModel> model;
  serve::ModelRegistry registry;
  std::shared_ptr<serve::ServableModel> servable;
};

ObsBundle& Bundle() {
  static ObsBundle* bundle = [] {
    auto* b = new ObsBundle();
    datasets::DatasetOptions options;
    options.min_graphs = 24;
    auto dataset_or = datasets::MakeDataset("KKI", options);
    DEEPMAP_CHECK(dataset_or.ok());
    b->dataset = std::move(dataset_or).value();
    b->config.features.kind = kernels::FeatureMapKind::kWlSubtree;
    b->config.features.wl.iterations = 1;
    b->config.features.max_dense_dim = 16;
    b->config.train.epochs = 2;
    b->config.train.batch_size = 8;
    b->pipeline = std::make_unique<core::DeepMapPipeline>(b->dataset, b->config);
    b->model = std::make_unique<core::DeepMapModel>(
        b->pipeline->feature_dim(), b->pipeline->sequence_length(),
        b->pipeline->num_classes(), b->config);
    nn::TrainClassifier(*b->model, b->pipeline->inputs(), b->dataset.labels(),
                        b->config.train);
    Status s = b->registry.Adopt("obs", b->dataset, b->config, *b->model);
    DEEPMAP_CHECK(s.ok());
    b->servable = b->registry.Get("obs");
    return b;
  }();
  return *bundle;
}

TEST(ObsServeIntegrationTest, EverySubmitIncrementsOneStageChain) {
  ObsBundle& b = Bundle();
  ServeCluster::Options options;
  options.num_replicas = 1;
  options.cache_capacity = 0;  // every request walks the full chain
  options.replica.max_batch = 8;
  ServeCluster cluster(b.servable, options);

  const int n = b.dataset.size();
  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < n; ++i) {
    futures.push_back(cluster.Submit(b.dataset.graph(i)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  cluster.Drain();

  const ServeMetrics& metrics = cluster.metrics();
  // Exactly one chain per request: each Submit lands one observation in
  // queue, preprocess, forward, and total — no drops, no double counting.
  EXPECT_EQ(metrics.requests(), n);
  EXPECT_EQ(metrics.stage_count("queue"), n);
  EXPECT_EQ(metrics.stage_count("preprocess"), n);
  EXPECT_EQ(metrics.stage_count("forward"), n);
  EXPECT_EQ(metrics.stage_count("total"), n);
  EXPECT_EQ(metrics.total_outcomes(), n);
  EXPECT_EQ(metrics.outcome_count(ServeOutcome::kOk), n);

  // The registry histograms saw the identical stream.
  obs::MetricsRegistry& registry =
      const_cast<ServeMetrics&>(cluster.metrics()).registry();
  for (const char* name :
       {"deepmap_serve_queue_seconds", "deepmap_serve_preprocess_seconds",
        "deepmap_serve_forward_seconds", "deepmap_serve_total_seconds"}) {
    EXPECT_EQ(registry.GetHistogram(name).Snapshot().count, n) << name;
  }
  EXPECT_EQ(
      registry.GetCounter("deepmap_serve_batch_items_total").Value(), n);
}

TEST(ObsServeIntegrationTest, CacheHitsSkipPipelineStages) {
  ObsBundle& b = Bundle();
  ServeCluster::Options options;
  options.num_replicas = 1;
  options.cache_capacity = 64;
  options.replica.max_batch = 4;
  ServeCluster cluster(b.servable, options);

  const graph::Graph& g = b.dataset.graph(0);
  ASSERT_TRUE(cluster.Submit(g).get().ok());  // cold: full chain
  ASSERT_TRUE(cluster.Submit(g).get().ok());  // warm: total only
  const ServeMetrics& metrics = cluster.metrics();
  EXPECT_EQ(metrics.requests(), 2);
  EXPECT_EQ(metrics.cache_hits(), 1);
  EXPECT_EQ(metrics.stage_count("total"), 2);
  EXPECT_EQ(metrics.stage_count("preprocess"), 1);
  EXPECT_EQ(metrics.stage_count("forward"), 1);
}

TEST(ObsServeIntegrationTest, WlColorsGaugeGrowsOnlyWithNovelSignatures) {
  ObsBundle& b = Bundle();
  ServeCluster::Options options;
  options.num_replicas = 1;
  options.cache_capacity = 0;  // a repeat is refined again, not answered
  options.replica.max_batch = 4;
  ServeCluster cluster(b.servable, options);

  datasets::DatasetOptions novel_options;
  novel_options.min_graphs = 8;
  novel_options.seed = 977;
  auto novel_or = datasets::MakeDataset("KKI", novel_options);
  ASSERT_TRUE(novel_or.ok());
  std::vector<graph::Graph> novel;
  for (const graph::Graph& g : novel_or.value().graphs()) {
    if (g.NumVertices() <= b.servable->sequence_length()) novel.push_back(g);
  }
  ASSERT_FALSE(novel.empty());

  auto serve_all = [&] {
    std::vector<std::future<StatusOr<Prediction>>> futures;
    for (const graph::Graph& g : novel) futures.push_back(cluster.Submit(g));
    for (auto& f : futures) ASSERT_TRUE(f.get().ok());
    cluster.Drain();
  };
  const auto before =
      static_cast<int64_t>(b.servable->preprocessor().wl_colors());
  serve_all();
  const int64_t after_novel = cluster.metrics().wl_colors();
  EXPECT_GT(after_novel, before);
  EXPECT_EQ(after_novel,
            static_cast<int64_t>(b.servable->preprocessor().wl_colors()));
  obs::MetricsRegistry& registry =
      const_cast<ServeMetrics&>(cluster.metrics()).registry();
  EXPECT_EQ(registry.GetGauge("deepmap_serve_wl_colors").Value(),
            static_cast<double>(after_novel));

  serve_all();  // the same graphs again: every signature is known
  EXPECT_EQ(cluster.metrics().wl_colors(), after_novel);
}

}  // namespace
}  // namespace deepmap
