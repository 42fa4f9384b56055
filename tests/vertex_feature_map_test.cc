#include "kernels/vertex_feature_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/dataset.h"
#include "graph/graph.h"
#include "kernels/kernel_matrix.h"

namespace deepmap::kernels {
namespace {

using graph::Graph;
using graph::GraphDataset;

GraphDataset ToyDataset() {
  Graph triangle = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}}, {0, 1, 0});
  Graph path = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, {1, 0, 1, 0});
  Graph star = Graph::FromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}},
                                {0, 1, 1, 1, 1});
  return GraphDataset("toy", {triangle, path, star}, {0, 1, 1});
}

class VertexFeatureMapKindTest
    : public ::testing::TestWithParam<FeatureMapKind> {};

TEST_P(VertexFeatureMapKindTest, ShapesMatchDataset) {
  GraphDataset ds = ToyDataset();
  VertexFeatureConfig config;
  config.kind = GetParam();
  config.graphlet.k = 3;
  config.graphlet.samples_per_vertex = 5;
  DatasetVertexFeatures features = ComputeDatasetVertexFeatures(ds, config);
  ASSERT_EQ(features.all().size(), 3u);
  for (int g = 0; g < ds.size(); ++g) {
    EXPECT_EQ(features.all()[g].size(),
              static_cast<size_t>(ds.graph(g).NumVertices()));
  }
  EXPECT_GT(features.dim(), 0);
}

TEST_P(VertexFeatureMapKindTest, DenseRowHasDimWidth) {
  GraphDataset ds = ToyDataset();
  VertexFeatureConfig config;
  config.kind = GetParam();
  config.graphlet.k = 3;
  DatasetVertexFeatures features = ComputeDatasetVertexFeatures(ds, config);
  auto row = features.DenseRow(1, 2);
  EXPECT_EQ(row.size(), static_cast<size_t>(features.dim()));
}

TEST_P(VertexFeatureMapKindTest, GramMatrixIsPsd) {
  GraphDataset ds = ToyDataset();
  VertexFeatureConfig config;
  config.kind = GetParam();
  config.graphlet.k = 3;
  auto maps = ComputeGraphFeatureMaps(ds, config);
  Matrix k = GramMatrix(maps, /*normalize=*/true);
  EXPECT_TRUE(IsPositiveSemidefinite(k));
  for (size_t i = 0; i < k.size(); ++i) EXPECT_NEAR(k[i][i], 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, VertexFeatureMapKindTest,
                         ::testing::Values(FeatureMapKind::kGraphlet,
                                           FeatureMapKind::kShortestPath,
                                           FeatureMapKind::kWlSubtree),
                         [](const auto& info) {
                           return FeatureMapKindName(info.param);
                         });

TEST(DatasetVertexFeaturesTest, HashingCapsDimension) {
  GraphDataset ds = ToyDataset();
  VertexFeatureConfig config;
  config.kind = FeatureMapKind::kShortestPath;
  config.max_dense_dim = 2;
  DatasetVertexFeatures features = ComputeDatasetVertexFeatures(ds, config);
  EXPECT_TRUE(features.uses_hashing());
  EXPECT_EQ(features.dim(), 2);
  EXPECT_EQ(features.DenseRow(0, 0).size(), 2u);
}

TEST(DatasetVertexFeaturesTest, GraphMapEqualsVertexSum) {
  GraphDataset ds = ToyDataset();
  VertexFeatureConfig config;
  config.kind = FeatureMapKind::kWlSubtree;
  DatasetVertexFeatures features = ComputeDatasetVertexFeatures(ds, config);
  SparseFeatureMap sum;
  for (int v = 0; v < ds.graph(0).NumVertices(); ++v) {
    sum += features.Get(0, v);
  }
  SparseFeatureMap graph_map = features.GraphFeatureMap(0);
  EXPECT_DOUBLE_EQ(sum.Dot(sum), graph_map.Dot(graph_map));
}

TEST(DatasetVertexFeaturesTest, GraphletSeedReproducible) {
  GraphDataset ds = ToyDataset();
  VertexFeatureConfig config;
  config.kind = FeatureMapKind::kGraphlet;
  config.graphlet.k = 4;
  config.graphlet.samples_per_vertex = 7;
  config.seed = 123;
  auto a = ComputeGraphFeatureMaps(ds, config);
  auto b = ComputeGraphFeatureMaps(ds, config);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].Dot(a[i]), b[i].Dot(b[i]));
    EXPECT_DOUBLE_EQ(a[i].Dot(b[i]), a[i].Dot(a[i]));
  }
}

// ---------------------------------------------------------------------------
// SparseRowInto against the std::map + stable_sort SparseRow it replaced,
// for a hashed DatasetVertexFeatures with log scaling on.

std::vector<RowEntry> ReferenceHashedSparseRow(
    const SparseFeatureMap& map, const DatasetVertexFeatures& features) {
  std::vector<RowEntry> row;
  for (const auto& [id, count] : map.entries()) {
    row.push_back({static_cast<int32_t>(HashedColumn(
                       id, static_cast<size_t>(features.dim()))),
                   count});
  }
  std::stable_sort(row.begin(), row.end(),
                   [](const RowEntry& a, const RowEntry& b) {
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
  for (RowEntry& e : row) {
    e.value = std::log1p(e.value);
    if (!features.column_scale().empty()) {
      e.value *= features.column_scale()[static_cast<size_t>(e.col)];
    }
    if (e.value != 0.0) row[kept++] = e;
  }
  row.resize(kept);
  return row;
}

bool SameRow(const std::vector<RowEntry>& a, const RowEntry* b, size_t n) {
  if (a.size() != n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (a[i].col != b[i].col ||
        std::memcmp(&a[i].value, &b[i].value, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Random labelled graphs whose WL vocabulary is far larger than 64.
GraphDataset RandomLabelledDataset() {
  Rng rng(17);
  std::vector<Graph> graphs;
  for (int i = 0; i < 12; ++i) {
    Graph g(14);
    for (graph::Vertex v = 0; v < 14; ++v) {
      g.SetLabel(v, rng.UniformInt(0, 5));
      if (v > 0) g.AddEdge(v, rng.UniformInt(0, v - 1));
    }
    graphs.push_back(g);
  }
  return GraphDataset("random", graphs, std::vector<int>(graphs.size(), 0));
}

TEST(SparseRowIntoTest, WlIdsSharingAHashedColumnMatchMapRow) {
  // A WL vertex row is built from its H+1 colours as (PackWlFeature(h,
  // c_h), 1.0) pairs. Where two of those ids share a column at dim 64 the
  // row merges them; it must be bit-equal to the map-based row.
  const GraphDataset ds = RandomLabelledDataset();
  VertexFeatureConfig config;
  config.kind = FeatureMapKind::kWlSubtree;
  config.wl.iterations = 3;
  config.max_dense_dim = 64;
  const DatasetVertexFeatures features =
      ComputeDatasetVertexFeatures(ds, config);
  ASSERT_TRUE(features.uses_hashing());
  WlRefinement refinery(config.wl);
  int shared = 0;
  for (int g = 0; g < ds.size(); ++g) {
    const auto colors = refinery.Refine(ds.graph(g));
    for (graph::Vertex v = 0; v < ds.graph(g).NumVertices(); ++v) {
      std::vector<std::pair<FeatureId, double>> ids;
      std::vector<size_t> columns;
      for (int h = 0; h < static_cast<int>(colors.size()); ++h) {
        ids.push_back({PackWlFeature(h, colors[h][v]), 1.0});
        columns.push_back(HashedColumn(ids.back().first, 64));
      }
      std::sort(columns.begin(), columns.end());
      if (std::adjacent_find(columns.begin(), columns.end()) !=
          columns.end()) {
        ++shared;
      }
      std::vector<RowEntry> row(ids.size());
      const size_t n = features.SparseRowInto(ids.data(), ids.size(),
                                              row.data());
      ASSERT_TRUE(SameRow(ReferenceHashedSparseRow(features.Get(g, v),
                                                   features),
                          row.data(), n))
          << "graph " << g << " vertex " << v;
    }
  }
  EXPECT_GT(shared, 0);
}

TEST(SparseRowIntoTest, CollidingCountsSumInIdOrder) {
  // Three ids sharing column 0 at dim 64. Summed in id order, 1.0 comes
  // first and each 7e-17 (under half an ulp of 1.0) vanishes; summed in
  // reverse, the two small counts add up first and move the sum one ulp.
  // Column scaling is off, so the row value is log1p of the sum.
  const double counts[] = {1.0, 7e-17, 7e-17};
  const double in_order = ((0.0 + counts[0]) + counts[1]) + counts[2];
  const double reversed = ((0.0 + counts[2]) + counts[1]) + counts[0];
  ASSERT_NE(std::log1p(in_order), std::log1p(reversed));
  std::vector<FeatureId> colliding;
  for (FeatureId id = 1; colliding.size() < 3; ++id) {
    if (HashedColumn(id, 64) == 0) colliding.push_back(id);
  }
  std::vector<SparseFeatureMap> training(1);
  for (FeatureId id = 1; id <= 100; ++id) training[0].Add(id);
  const DatasetVertexFeatures features({training}, 64, /*log_scale_dense=*/true,
                                       /*normalize_dense=*/false);
  ASSERT_TRUE(features.uses_hashing());
  SparseFeatureMap map;
  for (int i = 0; i < 3; ++i) map.Add(colliding[i], counts[i]);
  const std::vector<RowEntry> row = features.SparseRow(map);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].col, 0);
  EXPECT_EQ(row[0].value, std::log1p(in_order));
  EXPECT_TRUE(SameRow(ReferenceHashedSparseRow(map, features), row.data(),
                      row.size()));
}

TEST(FeatureMapKindNameTest, Names) {
  EXPECT_EQ(FeatureMapKindName(FeatureMapKind::kGraphlet), "GK");
  EXPECT_EQ(FeatureMapKindName(FeatureMapKind::kShortestPath), "SP");
  EXPECT_EQ(FeatureMapKindName(FeatureMapKind::kWlSubtree), "WL");
}

}  // namespace
}  // namespace deepmap::kernels
