// Byte-identity suite for the serve-path preprocessing stages that run over
// a flat, order-scattered adjacency (graph::OrderedAdjacency):
//   - WL refinement with colour-ordered signatures and a hashed dictionary
//     gives the colours and dictionary sizes of the std::map + per-vertex
//     sort refinement, across the reference replay, novel graphs and
//     vertex-renumbered graphs;
//   - eigenvector centrality gives the bytes of the power iteration over
//     per-vertex neighbour vectors;
//   - BuildFieldTable (rank-ordered lists, one epoch-stamped visited array)
//     and BuildReceptiveField give the fields of the per-slot BFS with a
//     fresh visited vector and a partial_sort of an overflowing hop;
//   - so Preprocessor::PreprocessSparse (vertex rows against a copy of the
//     std::map + stable_sort row routine SparseRowInto replaced) and
//     core::BuildDeepMapInput give the bytes the reference pipeline gives, on every Table-1 synthetic ×
//     {eigenvector, degree, PageRank, betweenness} × r ∈ {3, 5, 10}, plus
//     R-MAT, multi-component, isolated-vertex and one-vertex graphs;
//   - the flat WL dictionary (chunked signature arena, open-addressing slot
//     array, id = entry index) keeps those colours across a signature longer
//     than an arena block and across many slot-array growths, and
//     ModelRegistry::Load leaves the dictionary of one reference replay.
// The references below are the implementations these stages replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/alignment.h"
#include "core/deepmap.h"
#include "core/receptive_field.h"
#include "datasets/random_graphs.h"
#include "datasets/registry.h"
#include "graph/algorithms.h"
#include "graph/centrality.h"
#include "kernels/feature_map.h"
#include "kernels/vertex_feature_map.h"
#include "kernels/wl.h"
#include "nn/serialization.h"
#include "serve/model_registry.h"
#include "serve/preprocessor.h"

namespace deepmap {
namespace {

using core::AlignmentMeasure;
using core::kDummyVertex;
using graph::Graph;
using graph::Vertex;

// ---------------------------------------------------------------------------
// References

/// WL refinement over std::map dictionaries, sorting each signature.
class ReferenceWl {
 public:
  explicit ReferenceWl(int iterations)
      : dictionaries_(static_cast<size_t>(iterations)) {}

  std::vector<std::vector<int64_t>> Refine(const Graph& g) {
    const int n = g.NumVertices();
    const int iterations = static_cast<int>(dictionaries_.size());
    std::vector<std::vector<int64_t>> colors(iterations + 1);
    colors[0].resize(n);
    for (Vertex v = 0; v < n; ++v) colors[0][v] = g.GetLabel(v);
    std::vector<int64_t> signature;
    for (int h = 1; h <= iterations; ++h) {
      const std::vector<int64_t>& prev = colors[h - 1];
      auto& dict = dictionaries_[h - 1];
      colors[h].resize(n);
      for (Vertex v = 0; v < n; ++v) {
        signature.clear();
        signature.push_back(prev[v]);
        for (Vertex u : g.Neighbors(v)) signature.push_back(prev[u]);
        std::sort(signature.begin() + 1, signature.end());
        auto it = dict.find(signature);
        if (it == dict.end()) {
          it = dict.emplace(signature, static_cast<int64_t>(dict.size()))
                   .first;
        }
        colors[h][v] = it->second;
      }
    }
    return colors;
  }

  size_t NumColorsAtIteration(int h) const {
    return dictionaries_[h - 1].size();
  }

  std::vector<kernels::SparseFeatureMap> VertexMaps(const Graph& g) {
    const auto colors = Refine(g);
    std::vector<kernels::SparseFeatureMap> maps(g.NumVertices());
    for (int h = 0; h < static_cast<int>(colors.size()); ++h) {
      for (Vertex v = 0; v < g.NumVertices(); ++v) {
        maps[v].Add(kernels::PackWlFeature(h, colors[h][v]));
      }
    }
    return maps;
  }

 private:
  std::vector<std::map<std::vector<int64_t>, int64_t>> dictionaries_;
};

/// Power iteration on A + I over Graph's per-vertex neighbour vectors, with
/// the per-component norms accumulated in a second pass. The iteration cap
/// and tolerance are written out here, not read from the code under test.
std::vector<double> ReferenceEigenvector(const Graph& g) {
  constexpr int kMaxIterations = 200;
  constexpr double kTolerance = 1e-10;
  const int n = g.NumVertices();
  if (n == 0) return {};
  if (g.NumEdges() == 0) {
    return std::vector<double>(n, 1.0 / std::sqrt(static_cast<double>(n)));
  }
  const std::vector<int> component = graph::ConnectedComponents(g);
  int num_components = 0;
  for (int c : component) num_components = std::max(num_components, c + 1);
  std::vector<char> active(num_components, 0);
  std::vector<int> size(num_components, 0);
  for (Vertex v = 0; v < n; ++v) {
    ++size[component[v]];
    if (g.Degree(v) > 0) active[component[v]] = 1;
  }
  int num_active = 0;
  for (char a : active) num_active += a;
  std::vector<double> x(n, 0.0);
  std::vector<double> norm(num_components);
  for (Vertex v = 0; v < n; ++v) {
    if (active[component[v]]) {
      x[v] = 1.0 / std::sqrt(static_cast<double>(size[component[v]]));
    }
  }
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    for (Vertex v = 0; v < n; ++v) {
      double sum = x[v];
      for (Vertex u : g.Neighbors(v)) sum += x[u];
      next[v] = sum;
    }
    std::fill(norm.begin(), norm.end(), 0.0);
    for (Vertex v = 0; v < n; ++v) norm[component[v]] += next[v] * next[v];
    bool renormalized = false;
    for (int c = 0; c < num_components; ++c) {
      if (!active[c]) continue;
      if (norm[c] > 0.0) {
        norm[c] = std::sqrt(norm[c]);
      } else {
        renormalized = true;
      }
    }
    double delta = 0.0;
    for (Vertex v = 0; v < n; ++v) {
      const int c = component[v];
      if (!active[c]) continue;
      next[v] = norm[c] > 0.0
                    ? next[v] / norm[c]
                    : 1.0 / std::sqrt(static_cast<double>(size[c]));
      delta = std::max(delta, std::fabs(next[v] - x[v]));
    }
    x.swap(next);
    if (!renormalized && delta < kTolerance) break;
  }
  if (num_active > 0) {
    const double scale = 1.0 / std::sqrt(static_cast<double>(num_active));
    for (double& value : x) value *= scale;
  }
  for (double& value : x) value = std::max(value, 0.0);
  return x;
}

std::vector<double> ReferenceCentrality(const Graph& g,
                                        AlignmentMeasure measure) {
  if (measure == AlignmentMeasure::kEigenvector) {
    return ReferenceEigenvector(g);
  }
  return core::ComputeCentrality(g, measure, nullptr);
}

/// One field by BFS with a fresh visited vector, keeping the top of an
/// overflowing hop with partial_sort.
std::vector<Vertex> ReferenceField(const Graph& g, Vertex v, int r,
                                   const std::vector<double>& centrality) {
  auto by_centrality_desc = [&](Vertex a, Vertex b) {
    if (centrality[a] != centrality[b]) return centrality[a] > centrality[b];
    return a < b;
  };
  std::vector<Vertex> field{v};
  std::vector<bool> taken(g.NumVertices(), false);
  taken[v] = true;
  std::vector<Vertex> hop{v};
  while (static_cast<int>(field.size()) < r && !hop.empty()) {
    std::vector<Vertex> next_hop;
    for (Vertex u : hop) {
      for (Vertex w : g.Neighbors(u)) {
        if (!taken[w]) {
          taken[w] = true;
          next_hop.push_back(w);
        }
      }
    }
    const int room = r - static_cast<int>(field.size());
    if (static_cast<int>(next_hop.size()) > room) {
      std::partial_sort(next_hop.begin(), next_hop.begin() + room,
                        next_hop.end(), by_centrality_desc);
      next_hop.resize(static_cast<size_t>(room));
    }
    field.insert(field.end(), next_hop.begin(), next_hop.end());
    hop = std::move(next_hop);
  }
  std::sort(field.begin(), field.end(), by_centrality_desc);
  field.resize(static_cast<size_t>(r), kDummyVertex);
  return field;
}

std::vector<Vertex> ReferenceFieldTable(const Graph& g,
                                        const std::vector<Vertex>& sequence,
                                        int r,
                                        const std::vector<double>& centrality) {
  std::vector<Vertex> table(sequence.size() * static_cast<size_t>(r),
                            kDummyVertex);
  for (size_t slot = 0; slot < sequence.size(); ++slot) {
    if (sequence[slot] == kDummyVertex) continue;
    const std::vector<Vertex> field =
        ReferenceField(g, sequence[slot], r, centrality);
    std::copy(field.begin(), field.end(), table.begin() + slot * r);
  }
  return table;
}

/// The vocabulary `features` densifies by: every id of every reference
/// vertex map.
kernels::Vocabulary ReferenceVocabulary(
    const kernels::DatasetVertexFeatures& features) {
  kernels::Vocabulary vocabulary;
  for (const auto& per_graph : features.all()) {
    for (const kernels::SparseFeatureMap& map : per_graph) {
      vocabulary.AddAll(map);
    }
  }
  return vocabulary;
}

/// The row routine SparseRowInto replaced: column lookup over the map's
/// (id, count) entries, a stable_sort by column (ids sharing a column keep
/// their id order), a merge summing 0.0 + c_1 + c_2 + ..., then log1p and
/// the column scale, dropping zeros (the configs here keep log scaling on).
/// Built without the production row code, so a fault there shows in the
/// bytes.
std::vector<kernels::RowEntry> ReferenceRow(
    const kernels::SparseFeatureMap& map,
    const kernels::DatasetVertexFeatures& features,
    const kernels::Vocabulary& vocabulary) {
  std::vector<kernels::RowEntry> row;
  for (const auto& [id, count] : map.entries()) {
    const int64_t col =
        features.uses_hashing()
            ? static_cast<int64_t>(kernels::HashedColumn(
                  id, static_cast<size_t>(features.dim())))
            : vocabulary.ColumnOf(id);
    if (col >= 0) row.push_back({static_cast<int32_t>(col), count});
  }
  std::stable_sort(row.begin(), row.end(),
                   [](const kernels::RowEntry& a, const kernels::RowEntry& b) {
                     return a.col < b.col;
                   });
  size_t out = 0;
  for (size_t i = 0; i < row.size(); ++i) {
    if (out > 0 && row[out - 1].col == row[i].col) {
      row[out - 1].value += row[i].value;
    } else {
      row[out++] = {row[i].col, 0.0 + row[i].value};
    }
  }
  row.resize(out);
  size_t kept = 0;
  for (kernels::RowEntry& e : row) {
    e.value = std::log1p(e.value);
    if (!features.column_scale().empty()) {
      e.value *= features.column_scale()[static_cast<size_t>(e.col)];
    }
    if (e.value != 0.0) row[kept++] = e;
  }
  row.resize(kept);
  return row;
}

/// PreprocessSparse assembled from the references.
serve::SparseInput ReferenceSparse(
    const Graph& g, ReferenceWl& wl,
    const kernels::DatasetVertexFeatures& features,
    const kernels::Vocabulary& vocabulary, int w, int r,
    AlignmentMeasure measure) {
  const std::vector<kernels::SparseFeatureMap> maps = wl.VertexMaps(g);
  serve::SparseInput input;
  input.w = w;
  input.r = r;
  input.m = features.dim();
  for (const kernels::SparseFeatureMap& map : maps) {
    for (const kernels::RowEntry& e : ReferenceRow(map, features, vocabulary)) {
      input.Push(e.col, static_cast<float>(e.value));
    }
    input.EndRow();
  }
  const std::vector<double> centrality = ReferenceCentrality(g, measure);
  const std::vector<Vertex> sequence =
      core::GenerateVertexSequence(g, centrality, w);
  input.field = ReferenceFieldTable(g, sequence, r, centrality);
  return input;
}

/// BuildDeepMapInput assembled from the references.
nn::Tensor ReferenceDense(const Graph& g,
                          const kernels::DatasetVertexFeatures& features,
                          int graph_index, int w, int r,
                          AlignmentMeasure measure) {
  const int m = features.dim();
  nn::Tensor input({w * r, m});
  const std::vector<double> centrality = ReferenceCentrality(g, measure);
  const std::vector<Vertex> table = ReferenceFieldTable(
      g, core::GenerateVertexSequence(g, centrality, w), r, centrality);
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i] == kDummyVertex) continue;
    const std::vector<double> row = features.DenseRow(graph_index, table[i]);
    for (int c = 0; c < m; ++c) {
      input.data()[i * m + c] = static_cast<float>(row[c]);
    }
  }
  return input;
}

// ---------------------------------------------------------------------------
// Graphs

constexpr AlignmentMeasure kMeasures[] = {
    AlignmentMeasure::kEigenvector, AlignmentMeasure::kDegree,
    AlignmentMeasure::kPageRank, AlignmentMeasure::kBetweenness};
constexpr int kFieldSizes[] = {3, 5, 10};

graph::GraphDataset Synthetic(const std::string& name, int min_graphs,
                              uint64_t seed) {
  datasets::DatasetOptions options;
  options.scale = 0.0;
  options.min_graphs = min_graphs;
  options.seed = seed;
  auto dataset = datasets::MakeDataset(name, options);
  DEEPMAP_CHECK(dataset.ok());
  return std::move(dataset).value();
}

/// R-MAT (hubs whose first hop overflows every field), several components
/// of different shapes (regular ones tie on every centrality), isolated
/// vertices, an edgeless graph and a single vertex. At most `max_vertices`
/// vertices each; labels in [0, 4).
std::vector<Graph> EdgeCaseGraphs(int max_vertices, uint64_t seed) {
  Rng rng(seed);
  const int n = std::min(max_vertices, 40);
  std::vector<Graph> graphs;
  if (n >= 2) graphs.push_back(datasets::RMat(n, 4, rng));
  if (n >= 12) {
    Graph g(n);
    // Path 0-1-2-3, triangle 4-5-6, star 7-{8,9,10}, then a cycle over
    // the rest but the last two vertices, which stay isolated.
    for (auto [u, v] : std::vector<std::pair<Vertex, Vertex>>{
             {0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {4, 6}, {7, 8}, {7, 9},
             {7, 10}}) {
      g.AddEdge(u, v);
    }
    for (Vertex v = 11; v + 1 < n - 2; ++v) g.AddEdge(v, v + 1);
    if (n - 3 > 12) g.AddEdge(11, n - 3);
    graphs.push_back(g);
  }
  if (n >= 3) {
    Graph g = Graph::FromEdges(n, {{0, 1}, {1, 2}});
    graphs.push_back(g);         // mostly isolated vertices
    graphs.push_back(Graph(n));  // no edges at all
  }
  graphs.push_back(Graph(1));
  for (Graph& g : graphs) {
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      g.SetLabel(v, rng.UniformInt(0, 3));
    }
  }
  return graphs;
}

/// `g` with its vertices renumbered by a seeded shuffle.
Graph Renumbered(const Graph& g, uint64_t seed) {
  std::vector<Vertex> perm(g.NumVertices());
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  rng.Shuffle(perm);
  return g.Permuted(perm);
}

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectSameSparse(const serve::SparseInput& got,
                      const serve::SparseInput& want) {
  EXPECT_EQ(got.w, want.w);
  EXPECT_EQ(got.r, want.r);
  EXPECT_EQ(got.m, want.m);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.cols, want.cols);
  ASSERT_EQ(got.vals.size(), want.vals.size());
  EXPECT_EQ(std::memcmp(got.vals.data(), want.vals.data(),
                        got.vals.size() * sizeof(float)),
            0);
  EXPECT_EQ(got.field, want.field);
}

// ---------------------------------------------------------------------------
// Per Table-1 synthetic

class PreprocessEquivTest : public ::testing::TestWithParam<std::string> {
 protected:
  graph::GraphDataset Reference() const { return Synthetic(GetParam(), 8, 42); }

  /// The reference set's graphs, then the same graphs renumbered, then
  /// never-seen graphs from another seed and the edge cases, all with at
  /// most `max_vertices` vertices.
  std::vector<Graph> Corpus(const graph::GraphDataset& reference,
                            int max_vertices) const {
    std::vector<Graph> corpus = reference.graphs();
    for (const Graph& g : reference.graphs()) {
      corpus.push_back(Renumbered(g, 7 + corpus.size()));
    }
    const graph::GraphDataset novel = Synthetic(GetParam(), 4, 1234);
    for (const Graph& g : novel.graphs()) {
      if (g.NumVertices() <= max_vertices) corpus.push_back(g);
    }
    for (Graph& g : EdgeCaseGraphs(max_vertices, 99)) {
      corpus.push_back(std::move(g));
    }
    return corpus;
  }
};

TEST_P(PreprocessEquivTest, WlColorsAndDictionarySizesMatchReference) {
  const graph::GraphDataset reference = Reference();
  const int w = std::max(1, reference.MaxVertices());
  for (int iterations : {0, 1, 3}) {
    kernels::WlRefinement refinery(kernels::WlConfig{iterations});
    ReferenceWl expected(iterations);
    // Reference replay, then renumbered, novel and edge-case graphs: the ids
    // of new signatures depend on everything refined before.
    for (const Graph& g : Corpus(reference, w)) {
      ASSERT_EQ(refinery.Refine(g), expected.Refine(g))
          << GetParam() << " H=" << iterations << " " << g.ToString();
      for (int h = 1; h <= iterations; ++h) {
        ASSERT_EQ(refinery.NumColorsAtIteration(h),
                  expected.NumColorsAtIteration(h));
      }
    }
  }
}

TEST_P(PreprocessEquivTest, CentralityAndFieldsMatchReference) {
  const graph::GraphDataset reference = Reference();
  for (const Graph& g : Corpus(reference, 1 << 20)) {
    const int n = g.NumVertices();
    EXPECT_TRUE(SameDoubles(graph::EigenvectorCentrality(g),
                            ReferenceEigenvector(g)))
        << g.ToString();
    for (AlignmentMeasure measure : kMeasures) {
      const std::vector<double> centrality = ReferenceCentrality(g, measure);
      const std::vector<Vertex> sequence =
          core::GenerateVertexSequence(g, centrality, n + 2);
      for (int r : kFieldSizes) {
        ASSERT_EQ(core::BuildFieldTable(g, sequence, r, centrality),
                  ReferenceFieldTable(g, sequence, r, centrality))
            << g.ToString() << " " << core::AlignmentMeasureName(measure)
            << " r=" << r;
        for (Vertex v = 0; v < n; ++v) {
          ASSERT_EQ(core::BuildReceptiveField(g, v, r, centrality),
                    ReferenceField(g, v, r, centrality));
        }
      }
    }
  }
}

TEST_P(PreprocessEquivTest, BuildDeepMapInputBytesMatchReference) {
  const graph::GraphDataset reference = Reference();
  const kernels::DatasetVertexFeatures features =
      kernels::ComputeDatasetVertexFeatures(reference, {});
  const int w = std::max(1, reference.MaxVertices());
  for (AlignmentMeasure measure : kMeasures) {
    for (int r : kFieldSizes) {
      for (int i = 0; i < reference.size(); ++i) {
        const nn::Tensor got = core::BuildDeepMapInput(
            reference.graph(i), features, i, w, r, measure, nullptr);
        const nn::Tensor want =
            ReferenceDense(reference.graph(i), features, i, w, r, measure);
        ASSERT_EQ(got.shape(), want.shape());
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.flat().size() * sizeof(float)),
                  0)
            << GetParam() << " graph " << i << " "
            << core::AlignmentMeasureName(measure) << " r=" << r;
      }
    }
  }
}

TEST_P(PreprocessEquivTest, PreprocessSparseBytesMatchReference) {
  const graph::GraphDataset reference = Reference();
  const int w = std::max(1, reference.MaxVertices());
  const std::vector<Graph> corpus = Corpus(reference, w);
  for (AlignmentMeasure measure : kMeasures) {
    for (int r : kFieldSizes) {
      core::DeepMapConfig config;
      config.alignment = measure;
      config.receptive_field_size = r;
      // Hashed columns keep novel WL ids in the input, so a differing id
      // shows in the bytes.
      config.features.max_dense_dim = 64;
      serve::Preprocessor preprocessor(reference, config);
      // The preprocessor keeps no maps; the offline pipeline's are the same.
      const kernels::Vocabulary vocabulary = ReferenceVocabulary(
          kernels::ComputeDatasetVertexFeatures(reference, config.features));
      ReferenceWl wl(config.features.wl.iterations);
      for (const Graph& g : reference.graphs()) wl.Refine(g);
      for (const Graph& g : corpus) {
        StatusOr<serve::SparseInput> got = preprocessor.PreprocessSparse(g);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        SCOPED_TRACE(GetParam() + " " + core::AlignmentMeasureName(measure) +
                     " r=" + std::to_string(r) + " " + g.ToString());
        ExpectSameSparse(got.value(),
                         ReferenceSparse(g, wl, preprocessor.features(),
                                         vocabulary, w, r, measure));
      }
    }
  }
}

std::string TestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Table1, PreprocessEquivTest,
                         ::testing::ValuesIn(datasets::DatasetNames()),
                         TestName);

// ---------------------------------------------------------------------------
// The flat WL dictionary

/// Refines `graphs` in order with a WlRefinement and a ReferenceWl, twice,
/// comparing colours and dictionary sizes after every graph. The second pass
/// looks up again every signature the first one stored.
void ExpectSameRefinement(const std::vector<Graph>& graphs,
                          kernels::WlRefinement& refinery) {
  const int iterations = refinery.iterations();
  ReferenceWl expected(iterations);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < graphs.size(); ++i) {
      ASSERT_EQ(refinery.Refine(graphs[i]), expected.Refine(graphs[i]))
          << "pass " << pass << " graph " << i;
      for (int h = 1; h <= iterations; ++h) {
        ASSERT_EQ(refinery.NumColorsAtIteration(h),
                  expected.NumColorsAtIteration(h))
            << "pass " << pass << " graph " << i << " h=" << h;
      }
    }
  }
}

void ExpectSameRefinement(const std::vector<Graph>& graphs, int iterations) {
  kernels::WlRefinement refinery(kernels::WlConfig{iterations});
  ExpectSameRefinement(graphs, refinery);
}

TEST(WlDictionaryTest, HubSignatureLongerThanOneArenaBlock) {
  // An arena block holds 8192 colours and a hub's signature is 1 + its
  // degree long: 8191 leaves fill a block exactly, 9000 and 20000 need a
  // block of their own. Small graphs in between share the blocks' tails.
  Rng rng(5);
  std::vector<Graph> graphs;
  for (int leaves : {8191, 9000, 20000}) {
    Graph star(leaves + 1);
    for (Vertex leaf = 1; leaf <= leaves; ++leaf) star.AddEdge(0, leaf);
    for (Vertex v = 0; v <= leaves; ++v) star.SetLabel(v, rng.UniformInt(0, 3));
    graphs.push_back(star);
    graphs.push_back(Renumbered(star, 3 + leaves));
    for (Graph& g : EdgeCaseGraphs(40, 100 + leaves)) {
      graphs.push_back(std::move(g));
    }
  }
  ExpectSameRefinement(graphs, 3);
}

TEST(WlDictionaryTest, SlotArrayGrowthKeepsIds) {
  // 200 graphs of 40 vertices with labels from 500: nearly every
  // signature is new, so each iteration holds thousands of entries. The
  // slot array starts at 16 slots and doubles whenever it is more than half
  // full, so that is at least 8 growths, and the signatures fill several
  // arena blocks, so some end at a block's end.
  Rng rng(11);
  std::vector<Graph> graphs;
  for (int i = 0; i < 200; ++i) {
    Graph g = datasets::ErdosRenyi(40, 0.1, rng);
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      g.SetLabel(v, rng.UniformInt(0, 499));
    }
    graphs.push_back(std::move(g));
  }
  ExpectSameRefinement(graphs, 2);
  kernels::WlRefinement refinery(kernels::WlConfig{2});
  for (const Graph& g : graphs) refinery.Refine(g);
  EXPECT_GT(refinery.NumColorsAtIteration(1), 16u << 8);
  EXPECT_GT(refinery.NumColorsAtIteration(2), 16u << 8);
}

TEST(WlDictionaryTest, ExtremeLabelsInOneGraph) {
  // Labels 0 and INT32_MAX side by side, then with the negative extremes:
  // the arena holds them as 32-bit colours, where a negative label sorts
  // after every non-negative one. Ids must not change either way.
  constexpr graph::Label kMax = std::numeric_limits<int32_t>::max();
  const std::vector<std::vector<graph::Label>> label_sets = {
      {0, kMax, 1, kMax - 1},
      {0, kMax, 1, kMax - 1, -1, std::numeric_limits<int32_t>::min()}};
  Rng rng(17);
  std::vector<Graph> graphs;
  for (const std::vector<graph::Label>& labels : label_sets) {
    for (int i = 0; i < 30; ++i) {
      Graph g = datasets::ErdosRenyi(12 + i % 7, 0.3, rng);
      for (Vertex v = 0; v < g.NumVertices(); ++v) {
        g.SetLabel(v, labels[static_cast<size_t>(rng.UniformInt(
                          0, static_cast<int>(labels.size()) - 1))]);
      }
      graphs.push_back(std::move(g));
    }
  }
  ExpectSameRefinement(graphs, 3);
}

TEST(WlDictionaryTest, EverySignatureLengthFromOneToNine) {
  // Disjoint stars with 0..8 leaves give signatures of every length 1..9:
  // the hash takes four colours per round in two lanes, so these reach
  // every tail (none, one, two, three colours left) after zero, one and two
  // full rounds. A hash reading past a signature's end would hash a block
  // in the scatter buffer and its arena copy differently.
  Rng rng(23);
  std::vector<Graph> graphs;
  for (int i = 0; i < 60; ++i) {
    Graph g;
    for (int leaves = 0; leaves <= 8; ++leaves) {
      const Vertex center = g.AddVertex(rng.UniformInt(0, 3));
      for (int l = 0; l < leaves; ++l) {
        g.AddEdge(center, g.AddVertex(rng.UniformInt(0, 3)));
      }
    }
    graphs.push_back(std::move(g));
  }
  ExpectSameRefinement(graphs, 3);
}

TEST(WlDictionaryTest, OverAHundredThousandEntriesPerIteration) {
  // 2600 graphs of 40 vertices with labels from a million: nearly every
  // signature is new, so each iteration passes 10^5 entries and the 64-bit
  // slot array grows from 16 slots to at least 2^18.
  Rng rng(29);
  std::vector<Graph> graphs;
  for (int i = 0; i < 2600; ++i) {
    Graph g = datasets::ErdosRenyi(40, 0.1, rng);
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      g.SetLabel(v, rng.UniformInt(0, 999999));
    }
    graphs.push_back(std::move(g));
  }
  ExpectSameRefinement(graphs, 2);
  kernels::WlRefinement refinery(kernels::WlConfig{2});
  for (const Graph& g : graphs) refinery.Refine(g);
  EXPECT_GT(refinery.NumColorsAtIteration(1), 100000u);
  EXPECT_GT(refinery.NumColorsAtIteration(2), 100000u);
}

TEST(WlDictionaryTest, FullHashCollisionsGetTheirOwnIds) {
  // Seed 2^32 makes the multiplier 2^32 + 1, under which many short
  // signatures share a full 64-bit hash. For each length 2..5, find two
  // signatures that differ only in their last color and collide, then refine
  // a graph holding both as stars (center = first color, leaves = the
  // rest, already sorted): only the element-by-element comparison keeps
  // them apart.
  constexpr uint64_t kWeakSeed = uint64_t{1} << 32;
  std::vector<std::vector<uint32_t>> colliding;
  for (uint32_t length = 2; length <= 5; ++length) {
    std::vector<uint32_t> signature(length, 0);
    bool found = false;
    for (uint32_t first = 0; first < 4 && !found; ++first) {
      signature[0] = first;
      std::map<uint64_t, uint32_t> last_by_hash;
      for (uint32_t last = 0; last < 64 && !found; ++last) {
        signature[length - 1] = last;
        const uint64_t hash = kernels::WlRefinement::SignatureHash(
            signature.data(), length, kWeakSeed);
        const auto [it, inserted] = last_by_hash.emplace(hash, last);
        if (!inserted) {
          colliding.push_back(signature);
          colliding.back()[length - 1] = it->second;
          colliding.push_back(signature);
          found = true;
        }
      }
    }
    ASSERT_TRUE(found) << "no colliding pair of length " << length;
  }
  Graph g;
  for (const std::vector<uint32_t>& signature : colliding) {
    const Vertex center = g.AddVertex(static_cast<graph::Label>(signature[0]));
    for (size_t i = 1; i < signature.size(); ++i) {
      g.AddEdge(center, g.AddVertex(static_cast<graph::Label>(signature[i])));
    }
  }
  kernels::WlRefinement refinery(kernels::WlConfig{2}, kWeakSeed);
  ExpectSameRefinement({g, Renumbered(g, 31)}, refinery);
}

TEST(WlDictionaryTest, LoadLeavesOneReplayOfTheReferenceSet) {
  for (const std::string name : {"PTC_MM", "COLLAB"}) {
    SCOPED_TRACE(name);
    const graph::GraphDataset reference = Synthetic(name, 8, 42);
    core::DeepMapConfig config;
    config.features.max_dense_dim = 64;
    const kernels::DatasetVertexFeatures expected =
        kernels::ComputeDatasetVertexFeatures(reference, config.features);
    core::DeepMapModel model(expected.dim(),
                             std::max(1, reference.MaxVertices()),
                             reference.NumClasses(), config);
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("preprocess_equiv_load_" + name + ".params");
    ASSERT_TRUE(nn::SaveParameters(model.Params(), path.string()).ok());
    serve::ModelRegistry registry;
    const Status loaded = registry.Load(name, reference, config, path.string());
    std::filesystem::remove(path);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    serve::Preprocessor& preprocessor = registry.Get(name)->preprocessor();

    ReferenceWl wl(config.features.wl.iterations);
    for (const Graph& g : reference.graphs()) wl.Refine(g);
    size_t replayed = 0;
    for (int h = 1; h <= config.features.wl.iterations; ++h) {
      replayed += wl.NumColorsAtIteration(h);
    }
    EXPECT_EQ(preprocessor.wl_colors(), replayed);

    // The densification scheme is the offline pipeline's, and the maps it
    // was built from are not kept.
    const kernels::DatasetVertexFeatures& got = preprocessor.features();
    EXPECT_EQ(got.dim(), expected.dim());
    EXPECT_EQ(got.uses_hashing(), expected.uses_hashing());
    EXPECT_TRUE(SameDoubles(got.column_scale(), expected.column_scale()));
    EXPECT_TRUE(got.all().empty());

    // Every reference vertex's served row is the offline row of its offline
    // map, so the replayed dictionary gave every vertex its training colors.
    for (int g = 0; g < reference.size(); ++g) {
      StatusOr<serve::SparseInput> input =
          preprocessor.PreprocessSparse(reference.graph(g));
      ASSERT_TRUE(input.ok()) << input.status().ToString();
      serve::SparseInput want;
      for (Vertex v = 0; v < reference.graph(g).NumVertices(); ++v) {
        for (const kernels::RowEntry& e :
             expected.SparseRow(expected.Get(g, v))) {
          want.Push(e.col, static_cast<float>(e.value));
        }
        want.EndRow();
      }
      const serve::SparseInput& rows = input.value();
      SCOPED_TRACE("graph " + std::to_string(g));
      EXPECT_EQ(rows.row_ptr, want.row_ptr);
      EXPECT_EQ(rows.cols, want.cols);
      ASSERT_EQ(rows.vals.size(), want.vals.size());
      EXPECT_EQ(std::memcmp(rows.vals.data(), want.vals.data(),
                            rows.vals.size() * sizeof(float)),
                0);
    }
    EXPECT_EQ(preprocessor.wl_colors(), replayed);
  }
}

}  // namespace
}  // namespace deepmap
