// Equivalence suite for the sparse serve-path input (serve/sparse_input.h):
//   - DatasetVertexFeatures::SparseRow scattered into a zero row is byte for
//     byte the dense densification (vocabulary lookup or hash-bucket merge,
//     log1p, column scaling over all m columns), in vocabulary and hashing
//     mode, including ids that collide in one bucket;
//   - the sparse forward pass (PreprocessSparse -> CompiledModel) gives the
//     same logit bytes as the dense reference for every feature-map kind,
//     readout and backend: the training stack for fp32, and for both
//     backends the dense windowed forward the serve path ran before it went
//     sparse;
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
#include "nn/inference_backend.h"
#include "nn/int8_backend.h"
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
// Sparse forward vs dense forward

/// The dense windowed forward the serve path ran before its input became
/// sparse, built only from the row-major primitives. Conv1 visited each
/// nonzero receptive-field row from its first nonzero column c0 to m —
/// zeros after c0 included — adding a windowed dot to the running sums.
/// That windowed dot is ConvForward over the whole [c1, r*m] kernel with
/// the running sums as the bias and the window zero-padded to r*m: int8
/// sees the same activation scale (max |x| over the window), the same exact
/// int32 dots and the same epilogue; fp32 adds the window's terms in the
/// same order after some extra +-0.0 terms.
nn::Tensor DenseWindowedLogits(const nn::InferenceBackend& be,
                               core::DeepMapModel& model,
                               const core::DeepMapConfig& config, int m, int w,
                               const nn::Tensor& input) {
  std::vector<nn::Param> params = model.Params();
  const int r = config.receptive_field_size;
  const int c1 = config.conv1_channels;
  const int c2 = config.conv2_channels;
  const int c3 = config.conv3_channels;
  const bool concat = config.readout == core::ReadoutKind::kConcat;
  const auto conv1 = be.Pack(*params[0].value);
  const auto conv2 = be.Pack(*params[2].value);
  const auto conv3 = be.Pack(*params[4].value);
  const auto dense1 = be.Pack(*params[6].value);
  const auto dense2 = be.Pack(*params[8].value);
  const float* b1 = params[1].value->data();
  const float* b2 = params[3].value->data();
  const float* b3 = params[5].value->data();

  std::vector<float> window(static_cast<size_t>(r) * m);
  std::vector<float> h1(c1), h2(c2), h3(c3), sums(c1);
  std::vector<float> readout(static_cast<size_t>(concat ? c3 * w : c3), 0.0f);
  for (int s = 0; s < w; ++s) {
    bool any_row = false;
    for (int pos = 0; pos < r; ++pos) {
      const float* row = input.data() + (static_cast<size_t>(s) * r + pos) * m;
      int c0 = 0;
      while (c0 < m && row[c0] == 0.0f) ++c0;
      if (c0 == m) continue;
      if (!any_row) {
        std::copy(b1, b1 + c1, h1.begin());
        any_row = true;
      }
      std::fill(window.begin(), window.end(), 0.0f);
      std::copy(row + c0, row + m, window.begin() + pos * m + c0);
      sums = h1;
      be.ConvForward(*conv1, sums.data(), window.data(), h1.data());
    }
    if (!any_row) std::copy(b1, b1 + c1, h1.begin());  // the dummy chain
    be.Relu(h1.data(), c1);
    be.ConvForward(*conv2, b2, h1.data(), h2.data());
    be.Relu(h2.data(), c2);
    be.ConvForward(*conv3, b3, h2.data(), h3.data());
    be.Relu(h3.data(), c3);
    for (int c = 0; c < c3; ++c) {
      if (concat) {
        readout[static_cast<size_t>(s) * c3 + c] = h3[c];
      } else {
        readout[c] += h3[c];
      }
    }
  }
  if (config.readout == core::ReadoutKind::kMean) {
    const float inv = 1.0f / static_cast<float>(w);
    for (float& v : readout) v *= inv;
  }
  std::vector<float> hidden(static_cast<size_t>(config.dense_units));
  be.DenseForward(*dense1, params[7].value->data(), readout.data(),
                  hidden.data());
  be.Relu(hidden.data(), config.dense_units);
  std::vector<float> logits(
      static_cast<size_t>(params[9].value->NumElements()));
  be.DenseForward(*dense2, params[9].value->data(), hidden.data(),
                  logits.data());
  return nn::Tensor::FromFlat(logits);
}

struct KindReadout {
  FeatureMapKind kind;
  core::ReadoutKind readout;
};

class SparseForwardTest : public ::testing::TestWithParam<KindReadout> {};

TEST_P(SparseForwardTest, LogitsByteEqualDenseForEveryBackend) {
  const graph::GraphDataset dataset = Synthetic("PTC_MM", 16);
  core::DeepMapConfig config;
  config.features.kind = GetParam().kind;
  config.features.wl.iterations = 2;
  config.features.graphlet.k = 3;
  config.features.graphlet.samples_per_vertex = 4;
  config.features.max_dense_dim = 32;
  config.readout = GetParam().readout;
  config.conv1_channels = 8;
  config.conv2_channels = 6;
  config.conv3_channels = 4;
  config.dense_units = 12;
  config.train.epochs = 1;
  config.train.batch_size = 8;
  core::DeepMapPipeline pipeline(dataset, config);
  const int m = pipeline.feature_dim();
  const int w = pipeline.sequence_length();
  core::DeepMapModel model(m, w, pipeline.num_classes(), config);
  nn::TrainClassifier(model, pipeline.inputs(), dataset.labels(), config.train);

  serve::Preprocessor preprocessor(dataset, config);
  nn::Int8Backend int8;
  const nn::InferenceBackend* backends[] = {&nn::Fp32Backend(), &int8};

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

  for (const nn::InferenceBackend* be : backends) {
    auto compiled = CompiledModel::Compile(model, config, m, w,
                                           pipeline.num_classes(), be);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    ForwardScratch scratch;
    for (size_t i = 0; i < graphs.size(); ++i) {
      StatusOr<SparseInput> sparse = preprocessor.PreprocessSparse(graphs[i]);
      ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
      EXPECT_EQ(sparse.value().num_rows(), graphs[i].NumVertices());
      StatusOr<nn::Tensor> dense = preprocessor.Preprocess(graphs[i]);
      ASSERT_TRUE(dense.ok());

      const nn::Tensor got = compiled.value().Logits(sparse.value(), &scratch);
      const size_t n = static_cast<size_t>(got.NumElements());
      const nn::Tensor want =
          DenseWindowedLogits(*be, model, config, m, w, dense.value());
      ASSERT_EQ(want.NumElements(), got.NumElements());
      EXPECT_TRUE(SameBytes(got.data(), want.data(), n))
          << be->name() << " graph " << i;
      // The dense adapter runs the same core on one row per position.
      const nn::Tensor adapted =
          compiled.value().Logits(dense.value(), &scratch);
      EXPECT_TRUE(SameBytes(adapted.data(), want.data(), n))
          << be->name() << " graph " << i;
      if (be == &nn::Fp32Backend()) {
        const nn::Tensor offline = model.Forward(dense.value(), false);
        EXPECT_TRUE(SameBytes(got.data(), offline.data(), n)) << "graph " << i;
      }
    }
  }
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
