// Equivalence suite for the sparse serve-path input (serve/sparse_input.h):
//   - DatasetVertexFeatures::SparseRow scattered into a zero row is byte for
//     byte the dense densification (vocabulary lookup or hash-bucket merge,
//     log1p, column scaling over all m columns), in vocabulary and hashing
//     mode, including ids that collide in one bucket;
//   - the sparse forward pass (PreprocessSparse -> CompiledModel) and the
//     dense adapter (Preprocess -> CompiledModel) give the same logit bytes
//     as the training stack (DeepMapModel::Forward) for every feature-map
//     kind and readout, at channel widths that reach every tile edge of the
//     forward kernels;
//   - graphlet preprocessing is a pure function of the request graph:
//     request order and concurrent submitters do not change any logit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/deepmap.h"
#include "datasets/registry.h"
#include "kernels/feature_map.h"
#include "kernels/graphlet.h"
#include "kernels/vertex_feature_map.h"
#include "nn/model.h"
#include "serve/cluster.h"
#include "serve/model_registry.h"

namespace deepmap {
namespace {

using kernels::DatasetVertexFeatures;
using kernels::FeatureMapKind;
using kernels::SparseFeatureMap;
using serve::CompiledModel;
using serve::ForwardScratch;
using serve::SparseInput;

graph::GraphDataset Synthetic(const char* name, int min_graphs) {
  datasets::DatasetOptions options;
  options.scale = 0.0;
  options.min_graphs = min_graphs;
  auto dataset = datasets::MakeDataset(name, options);
  DEEPMAP_CHECK(dataset.ok());
  return std::move(dataset).value();
}

bool SameBytes(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// SparseRow vs dense densification

/// The dense densification every vertex row went through before rows became
/// sparse: all dim() columns, log1p and column scaling on each.
std::vector<double> DenseReference(const DatasetVertexFeatures& features,
                                   const kernels::Vocabulary& vocabulary,
                                   bool log_scale,
                                   const SparseFeatureMap& map) {
  std::vector<double> dense;
  if (features.uses_hashing()) {
    dense = kernels::DensifyHashed(map, static_cast<size_t>(features.dim()));
  } else {
    dense = vocabulary.Densify(map);
    dense.resize(static_cast<size_t>(features.dim()), 0.0);
  }
  if (log_scale) {
    for (double& x : dense) x = std::log1p(x);
  }
  const std::vector<double>& scale = features.column_scale();
  if (!scale.empty()) {
    for (size_t c = 0; c < dense.size(); ++c) dense[c] *= scale[c];
  }
  return dense;
}

/// Checks SparseRow's invariants and that both it (scattered) and
/// DensifyRow are byte-equal to the dense reference for every map.
void ExpectSparseRowsMatchDense(const DatasetVertexFeatures& features,
                                bool log_scale,
                                const std::vector<SparseFeatureMap>& maps) {
  kernels::Vocabulary vocabulary;
  for (const auto& per_graph : features.all()) {
    for (const SparseFeatureMap& map : per_graph) vocabulary.AddAll(map);
  }
  const size_t m = static_cast<size_t>(features.dim());
  for (size_t i = 0; i < maps.size(); ++i) {
    const std::vector<double> want =
        DenseReference(features, vocabulary, log_scale, maps[i]);
    const std::vector<kernels::RowEntry> row = features.SparseRow(maps[i]);
    std::vector<double> scattered(m, 0.0);
    for (size_t k = 0; k < row.size(); ++k) {
      ASSERT_GE(row[k].col, 0);
      ASSERT_LT(static_cast<size_t>(row[k].col), m);
      if (k > 0) {
        ASSERT_LT(row[k - 1].col, row[k].col) << "map " << i;
      }
      ASSERT_NE(row[k].value, 0.0) << "map " << i;
      scattered[static_cast<size_t>(row[k].col)] = row[k].value;
    }
    ASSERT_EQ(std::memcmp(scattered.data(), want.data(), m * sizeof(double)), 0)
        << "map " << i;
    const std::vector<double> dense = features.DensifyRow(maps[i]);
    ASSERT_EQ(std::memcmp(dense.data(), want.data(), m * sizeof(double)), 0)
        << "map " << i;
  }
}

/// Every vertex map of `dataset` plus those of `other` (whose ids the
/// dataset's vocabulary has partly never seen).
std::vector<SparseFeatureMap> VertexMaps(
    const DatasetVertexFeatures& features, const graph::GraphDataset& other,
    const kernels::VertexFeatureConfig& config) {
  std::vector<SparseFeatureMap> maps;
  for (const auto& per_graph : features.all()) {
    maps.insert(maps.end(), per_graph.begin(), per_graph.end());
  }
  const DatasetVertexFeatures unseen =
      kernels::ComputeDatasetVertexFeatures(other, config);
  for (const auto& per_graph : unseen.all()) {
    maps.insert(maps.end(), per_graph.begin(), per_graph.end());
  }
  return maps;
}

TEST(SparseRowTest, ScatterEqualsDenseInVocabularyMode) {
  const graph::GraphDataset dataset = Synthetic("PTC_MM", 20);
  const graph::GraphDataset other = Synthetic("NCI1", 10);
  for (FeatureMapKind kind :
       {FeatureMapKind::kShortestPath, FeatureMapKind::kTreePp}) {
    kernels::VertexFeatureConfig config;
    config.kind = kind;
    const DatasetVertexFeatures features =
        kernels::ComputeDatasetVertexFeatures(dataset, config);
    ASSERT_FALSE(features.uses_hashing());
    ASSERT_FALSE(features.column_scale().empty());
    ExpectSparseRowsMatchDense(features, /*log_scale=*/true,
                               VertexMaps(features, other, config));
  }
}

TEST(SparseRowTest, ScatterEqualsDenseInHashingModeWithCollisions) {
  const graph::GraphDataset dataset = Synthetic("PTC_MM", 20);
  const graph::GraphDataset other = Synthetic("NCI1", 10);
  // Three ids in one bucket with counts whose sum depends on the order of
  // the additions, (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3), plus a fourth id
  // elsewhere: the merge has to add in id order, starting from 0.0. log1p
  // can round such sums together, so the scheme is checked with log
  // scaling and column scales off as well as on.
  std::vector<kernels::FeatureId> bucket;
  for (kernels::FeatureId id = 1; bucket.size() < 3; ++id) {
    if (kernels::HashedColumn(id, 8) == 5) bucket.push_back(id);
  }
  kernels::FeatureId lone = 1;
  while (kernels::HashedColumn(lone, 8) == 5) ++lone;
  ASSERT_NE((0.1 + 0.2) + 0.3, 0.1 + (0.2 + 0.3));
  SparseFeatureMap colliding;
  colliding.Add(bucket[0], 0.1);
  colliding.Add(bucket[1], 0.2);
  colliding.Add(bucket[2], 0.3);
  colliding.Add(lone, 2.0);

  for (bool scaled : {true, false}) {
    kernels::VertexFeatureConfig config;
    config.kind = FeatureMapKind::kShortestPath;
    config.max_dense_dim = 8;
    config.log_scale_dense = scaled;
    config.normalize_dense = scaled;
    const DatasetVertexFeatures features =
        kernels::ComputeDatasetVertexFeatures(dataset, config);
    ASSERT_TRUE(features.uses_hashing());
    std::vector<SparseFeatureMap> maps = VertexMaps(features, other, config);
    maps.push_back(colliding);
    const std::vector<kernels::RowEntry> row = features.SparseRow(colliding);
    ASSERT_EQ(row.size(), 2u);
    if (!scaled) {
      EXPECT_EQ(row[row[0].col == 5 ? 0 : 1].value, (0.1 + 0.2) + 0.3);
    }
    ExpectSparseRowsMatchDense(features, scaled, maps);
  }
}

// ---------------------------------------------------------------------------
// Sparse forward vs the training stack

struct KindReadout {
  FeatureMapKind kind;
  core::ReadoutKind readout;
};

/// Conv1/Conv2/Conv3 output channels of the trained network.
struct ChannelWidths {
  int c1, c2, c3;
};

/// Trains a small network of the given kind, readout and widths, and
/// byte-compares the compiled model's logits (sparse input and dense
/// adapter) against the training stack's on every reference graph plus one
/// padded with isolated vertices.
void ExpectLogitsByteEqualDense(KindReadout param, ChannelWidths widths) {
  const graph::GraphDataset dataset = Synthetic("PTC_MM", 16);
  core::DeepMapConfig config;
  config.features.kind = param.kind;
  config.features.wl.iterations = 2;
  config.features.graphlet.k = 3;
  config.features.graphlet.samples_per_vertex = 4;
  config.features.max_dense_dim = 32;
  config.readout = param.readout;
  config.conv1_channels = widths.c1;
  config.conv2_channels = widths.c2;
  config.conv3_channels = widths.c3;
  config.dense_units = 12;
  config.train.epochs = 1;
  config.train.batch_size = 8;
  core::DeepMapPipeline pipeline(dataset, config);
  const int m = pipeline.feature_dim();
  const int w = pipeline.sequence_length();
  core::DeepMapModel model(m, w, pipeline.num_classes(), config);
  nn::TrainClassifier(model, pipeline.inputs(), dataset.labels(), config.train);

  serve::Preprocessor preprocessor(dataset, config);

  // The reference graphs (the largest has n = w) plus one with isolated
  // vertices: the smallest graph padded with isolated vertices up to w - 1.
  std::vector<graph::Graph> graphs = dataset.graphs();
  ASSERT_EQ(dataset.MaxVertices(), w);
  graph::Graph isolated = *std::min_element(
      graphs.begin(), graphs.end(),
      [](const graph::Graph& a, const graph::Graph& b) {
        return a.NumVertices() < b.NumVertices();
      });
  ASSERT_LT(isolated.NumVertices() + 1, w);
  while (isolated.NumVertices() < w - 1) isolated.AddVertex(1);
  graphs.push_back(isolated);

  auto compiled =
      CompiledModel::Compile(model, config, m, w, pipeline.num_classes());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ForwardScratch scratch;
  for (size_t i = 0; i < graphs.size(); ++i) {
    StatusOr<SparseInput> sparse = preprocessor.PreprocessSparse(graphs[i]);
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    EXPECT_EQ(sparse.value().num_rows(), graphs[i].NumVertices());
    StatusOr<nn::Tensor> dense = preprocessor.Preprocess(graphs[i]);
    ASSERT_TRUE(dense.ok());

    const nn::Tensor want = model.Forward(dense.value(), false);
    const nn::Tensor got = compiled.value().Logits(sparse.value(), &scratch);
    const size_t n = static_cast<size_t>(want.NumElements());
    ASSERT_EQ(got.NumElements(), want.NumElements());
    EXPECT_TRUE(SameBytes(got.data(), want.data(), n)) << "graph " << i;
    // The dense adapter runs the same core on one row per position.
    const nn::Tensor adapted =
        compiled.value().Logits(dense.value(), &scratch);
    EXPECT_TRUE(SameBytes(adapted.data(), want.data(), n)) << "graph " << i;
  }
}

class SparseForwardTest : public ::testing::TestWithParam<KindReadout> {};

TEST_P(SparseForwardTest, LogitsByteEqualDenseForEveryBackend) {
  ExpectLogitsByteEqualDense(GetParam(), {8, 6, 4});
}

std::vector<KindReadout> AllKindsAndReadouts() {
  std::vector<KindReadout> params;
  for (FeatureMapKind kind :
       {FeatureMapKind::kWlSubtree, FeatureMapKind::kShortestPath,
        FeatureMapKind::kGraphlet, FeatureMapKind::kTreePp}) {
    for (core::ReadoutKind readout :
         {core::ReadoutKind::kSum, core::ReadoutKind::kMean,
          core::ReadoutKind::kConcat}) {
      params.push_back({kind, readout});
    }
  }
  return params;
}

std::string KindReadoutName(const ::testing::TestParamInfo<KindReadout>& info) {
  const char* readout[] = {"Sum", "Mean", "Concat"};
  return kernels::FeatureMapKindName(info.param.kind) +
         readout[static_cast<int>(info.param.readout)];
}

INSTANTIATE_TEST_SUITE_P(KindsAndReadouts, SparseForwardTest,
                         ::testing::ValuesIn(AllKindsAndReadouts()),
                         KindReadoutName);

// The same comparison at widths that reach every edge of the forward
// kernels: Conv2/Conv3 run four-slot by eight-channel tiles plus a one-slot
// tile for the slot tail and scalar chains for the channel tail, Conv1
// sixteen-channel blocks plus scalar chains, the dense head eight-output
// blocks plus scalar chains. 32/16/8 (the default network) is all full
// tiles; 12/10/9 leaves a channel tail in both pointwise convs and runs
// Conv1 as scalar chains only; 21/12/9 runs a Conv1 block followed by a
// scalar tail in the same slot. The isolated-vertex graph makes the
// live-slot counts include ones that are not a multiple of four.
struct KindReadoutWidths {
  KindReadout kind_readout;
  ChannelWidths widths;
};

class SparseForwardTileTest
    : public ::testing::TestWithParam<KindReadoutWidths> {};

TEST_P(SparseForwardTileTest, LogitsByteEqualDenseAtTileEdges) {
  ExpectLogitsByteEqualDense(GetParam().kind_readout, GetParam().widths);
}

std::vector<KindReadoutWidths> AllKindsReadoutsAndTileWidths() {
  std::vector<KindReadoutWidths> params;
  for (const ChannelWidths& widths :
       {ChannelWidths{32, 16, 8}, ChannelWidths{12, 10, 9},
        ChannelWidths{21, 12, 9}}) {
    for (const KindReadout& kind_readout : AllKindsAndReadouts()) {
      params.push_back({kind_readout, widths});
    }
  }
  return params;
}

std::string KindReadoutWidthsName(
    const ::testing::TestParamInfo<KindReadoutWidths>& info) {
  const KindReadoutWidths& p = info.param;
  return KindReadoutName({p.kind_readout, info.index}) + "_" +
         std::to_string(p.widths.c1) + "x" + std::to_string(p.widths.c2) +
         "x" + std::to_string(p.widths.c3);
}

INSTANTIATE_TEST_SUITE_P(TileWidths, SparseForwardTileTest,
                         ::testing::ValuesIn(AllKindsReadoutsAndTileWidths()),
                         KindReadoutWidthsName);

// ---------------------------------------------------------------------------
// Graphlet preprocessing is a pure function of the graph

TEST(GraphletServingTest, LogitsIndependentOfOrderAndConcurrency) {
  const graph::GraphDataset dataset = Synthetic("PTC_MM", 24);
  core::DeepMapConfig config;
  config.features.kind = FeatureMapKind::kGraphlet;
  config.features.graphlet.k = 3;
  config.features.graphlet.samples_per_vertex = 4;
  config.train.epochs = 1;
  config.train.batch_size = 8;
  core::DeepMapPipeline pipeline(dataset, config);
  core::DeepMapModel model(pipeline.feature_dim(), pipeline.sequence_length(),
                           pipeline.num_classes(), config);
  nn::TrainClassifier(model, pipeline.inputs(), dataset.labels(), config.train);
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Adopt("gk", dataset, config, model).ok());
  std::shared_ptr<serve::ServableModel> servable = registry.Get("gk");
  ASSERT_NE(servable, nullptr);
  const int n = dataset.size();

  auto logits_of = [&](int i, ForwardScratch* scratch) {
    StatusOr<SparseInput> input =
        servable->preprocessor().PreprocessSparse(dataset.graph(i));
    DEEPMAP_CHECK(input.ok());
    return servable->compiled().Logits(input.value(), scratch);
  };
  auto shuffled = [n](uint64_t seed) {
    std::vector<int> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed);
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[rng.Index(static_cast<size_t>(i) + 1)]);
    }
    return order;
  };

  std::vector<nn::Tensor> reference(static_cast<size_t>(n));
  ForwardScratch scratch;
  for (int i = 0; i < n; ++i) {
    reference[static_cast<size_t>(i)] = logits_of(i, &scratch);
  }
  auto expect_reference = [&](int i, const nn::Tensor& got) {
    const nn::Tensor& want = reference[static_cast<size_t>(i)];
    EXPECT_TRUE(SameBytes(got.data(), want.data(),
                          static_cast<size_t>(want.NumElements())))
        << "graph " << i;
  };

  // Reversed and shuffled orders on one thread.
  for (int i = n - 1; i >= 0; --i) expect_reference(i, logits_of(i, &scratch));
  for (int i : shuffled(7)) expect_reference(i, logits_of(i, &scratch));

  // Four concurrent submitters, each in its own order.
  std::vector<std::vector<nn::Tensor>> per_thread(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ForwardScratch local;
      per_thread[static_cast<size_t>(t)].resize(static_cast<size_t>(n));
      for (int i : shuffled(100 + t)) {
        per_thread[static_cast<size_t>(t)][static_cast<size_t>(i)] =
            logits_of(i, &local);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& logits : per_thread) {
    for (int i = 0; i < n; ++i) {
      expect_reference(i, logits[static_cast<size_t>(i)]);
    }
  }

  // Through the serving stack: two orders into an uncached cluster answer
  // every graph with the same bytes.
  serve::ServeCluster::Options options;
  options.num_replicas = 2;
  options.cache_capacity = 0;
  options.replica.num_threads = 2;
  serve::ServeCluster cluster(servable, options);
  auto serve_in = [&](const std::vector<int>& order) {
    std::vector<std::future<StatusOr<serve::Prediction>>> futures(
        static_cast<size_t>(n));
    for (int i : order) {
      futures[static_cast<size_t>(i)] = cluster.Submit(dataset.graph(i));
    }
    std::vector<serve::Prediction> answers;
    for (auto& f : futures) {
      StatusOr<serve::Prediction> p = f.get();
      DEEPMAP_CHECK(p.ok());
      answers.push_back(std::move(p).value());
    }
    return answers;
  };
  const std::vector<serve::Prediction> first = serve_in(shuffled(1));
  const std::vector<serve::Prediction> second = serve_in(shuffled(2));
  for (int i = 0; i < n; ++i) {
    const serve::Prediction& a = first[static_cast<size_t>(i)];
    const serve::Prediction& b = second[static_cast<size_t>(i)];
    EXPECT_EQ(a.label, b.label) << "graph " << i;
    ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
    EXPECT_TRUE(SameBytes(a.probabilities.data(), b.probabilities.data(),
                          a.probabilities.size()))
        << "graph " << i;
  }
}

TEST(GraphletServingTest, CatalogFirstUseFromConcurrentThreadsIsSafe) {
  // Graphlet preprocessing runs without a lock, so concurrent requests can
  // be the first to ask for a catalog; run under TSan this checks that the
  // lazy construction is synchronized. k = 4 is built by nothing else in
  // this process.
  std::atomic<int> ready{0};
  std::vector<const kernels::GraphletCatalog*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(seen.size())) {
      }
      seen[t] = &kernels::GetGraphletCatalog(4);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const kernels::GraphletCatalog* catalog : seen) {
    EXPECT_EQ(catalog, seen[0]);
  }
  EXPECT_EQ(seen[0]->size(), 11);  // the 11 graphs on 4 vertices
}

}  // namespace
}  // namespace deepmap
