#include "kernels/vertex_feature_map.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace deepmap::kernels {

std::string FeatureMapKindName(FeatureMapKind kind) {
  switch (kind) {
    case FeatureMapKind::kGraphlet:
      return "GK";
    case FeatureMapKind::kShortestPath:
      return "SP";
    case FeatureMapKind::kWlSubtree:
      return "WL";
    case FeatureMapKind::kTreePp:
      return "TREEPP";
  }
  return "?";
}

DatasetVertexFeatures::DatasetVertexFeatures(
    std::vector<std::vector<SparseFeatureMap>> features, int max_dense_dim,
    bool log_scale_dense, bool normalize_dense)
    : features_(std::move(features)), log_scale_dense_(log_scale_dense) {
  for (const auto& per_graph : features_) {
    for (const SparseFeatureMap& map : per_graph) vocabulary_.AddAll(map);
  }
  dim_ = static_cast<int>(vocabulary_.size());
  if (max_dense_dim > 0 && dim_ > max_dense_dim) {
    dim_ = max_dense_dim;
    uses_hashing_ = true;
  }
  if (dim_ == 0) dim_ = 1;  // degenerate datasets still need a column
  if (normalize_dense) {
    // Per-column inverse RMS over all vertex rows (after log scaling).
    std::vector<double> sum_squares(static_cast<size_t>(dim_), 0.0);
    int64_t num_rows = 0;
    for (size_t g = 0; g < features_.size(); ++g) {
      for (size_t v = 0; v < features_[g].size(); ++v) {
        // Zero columns would add +0.0 to a nonnegative sum: skipping them
        // leaves every sum bit-identical.
        for (const RowEntry& e : SparseRow(features_[g][v])) {
          sum_squares[static_cast<size_t>(e.col)] += e.value * e.value;
        }
        ++num_rows;
      }
    }
    // Soft normalization: 1/sqrt(rms_c^2 + mean_rms^2). Frequent columns are
    // scaled toward unit RMS while rare (often noisy) columns are boosted at
    // most by ~1/mean_rms, unlike a plain inverse-RMS which would blow them
    // up arbitrarily.
    double mean_square = 0.0;
    if (num_rows > 0) {
      for (int c = 0; c < dim_; ++c) mean_square += sum_squares[c];
      mean_square /= static_cast<double>(num_rows) * dim_;
    }
    column_scale_.assign(static_cast<size_t>(dim_), 0.0);
    for (int c = 0; c < dim_; ++c) {
      double square = num_rows > 0 ? sum_squares[c] / num_rows : 0.0;
      double denom = std::sqrt(square + mean_square);
      column_scale_[c] = denom > 1e-10 ? 1.0 / denom : 0.0;
    }
  }
}

const SparseFeatureMap& DatasetVertexFeatures::Get(int g, int v) const {
  DEEPMAP_CHECK_GE(g, 0);
  DEEPMAP_CHECK_LT(g, static_cast<int>(features_.size()));
  DEEPMAP_CHECK_GE(v, 0);
  DEEPMAP_CHECK_LT(v, static_cast<int>(features_[g].size()));
  return features_[g][v];
}

std::vector<double> DatasetVertexFeatures::DenseRow(int g, int v) const {
  return DensifyRow(Get(g, v));
}

std::vector<RowEntry> DatasetVertexFeatures::SparseRow(
    const SparseFeatureMap& map) const {
  std::vector<RowEntry> row;
  row.reserve(map.NumNonZero());
  for (const auto& [id, count] : map.entries()) {
    const int64_t col =
        uses_hashing_
            ? static_cast<int64_t>(HashedColumn(id, static_cast<size_t>(dim_)))
            : vocabulary_.ColumnOf(id);
    if (col >= 0) row.push_back({static_cast<int32_t>(col), count});
  }
  // Stable, so ids sharing a hash bucket keep their id order and each
  // column's sum is the dense path's chain 0.0 + c_1 + c_2 + ...
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
    if (log_scale_dense_) e.value = std::log1p(e.value);
    if (!column_scale_.empty()) {
      e.value *= column_scale_[static_cast<size_t>(e.col)];
    }
    if (e.value != 0.0) row[kept++] = e;
  }
  row.resize(kept);
  return row;
}

std::vector<double> DatasetVertexFeatures::DensifyRow(
    const SparseFeatureMap& map) const {
  std::vector<double> dense(static_cast<size_t>(dim_), 0.0);
  for (const RowEntry& e : SparseRow(map)) {
    dense[static_cast<size_t>(e.col)] = e.value;
  }
  return dense;
}

SparseFeatureMap DatasetVertexFeatures::GraphFeatureMap(int g) const {
  DEEPMAP_CHECK_GE(g, 0);
  DEEPMAP_CHECK_LT(g, static_cast<int>(features_.size()));
  return SumFeatureMaps(features_[g]);
}

DatasetVertexFeatures ComputeDatasetVertexFeatures(
    const graph::GraphDataset& dataset, const VertexFeatureConfig& config) {
  const size_t n = static_cast<size_t>(dataset.size());
  std::vector<std::vector<SparseFeatureMap>> features(n);
  // Per-graph extraction is independent for GK/SP/TREEPP, so those fan out
  // over ParallelFor. Graphlet sampling draws from a per-graph RNG stream
  // derived from (config.seed, graph index) instead of one generator
  // threaded through the dataset, which makes the maps order-independent
  // and identical for every thread count. WL is the exception: its
  // refinement dictionary grows across graphs in dataset order (the serve
  // preprocessor replays it in that order), so it stays sequential.
  switch (config.kind) {
    case FeatureMapKind::kGraphlet: {
      ParallelFor(n, [&](size_t g) {
        Rng rng(config.seed ^ (0x6b5ULL + g * 0x9E3779B97F4A7C15ULL));
        features[g] = VertexGraphletFeatureMaps(
            dataset.graph(static_cast<int>(g)), config.graphlet, rng);
      });
      break;
    }
    case FeatureMapKind::kShortestPath: {
      ParallelFor(n, [&](size_t g) {
        features[g] = VertexSpFeatureMaps(dataset.graph(static_cast<int>(g)),
                                          config.shortest_path);
      });
      break;
    }
    case FeatureMapKind::kWlSubtree: {
      features = VertexWlFeatureMapsForGraphs(dataset.graphs(), config.wl);
      break;
    }
    case FeatureMapKind::kTreePp: {
      ParallelFor(n, [&](size_t g) {
        features[g] = VertexTreePpFeatureMaps(
            dataset.graph(static_cast<int>(g)), config.treepp);
      });
      break;
    }
  }
  return DatasetVertexFeatures(std::move(features), config.max_dense_dim,
                               config.log_scale_dense,
                               config.normalize_dense);
}

std::vector<SparseFeatureMap> ComputeGraphFeatureMaps(
    const graph::GraphDataset& dataset, const VertexFeatureConfig& config) {
  DatasetVertexFeatures features =
      ComputeDatasetVertexFeatures(dataset, config);
  std::vector<SparseFeatureMap> graph_maps;
  graph_maps.reserve(dataset.size());
  for (int g = 0; g < dataset.size(); ++g) {
    graph_maps.push_back(features.GraphFeatureMap(g));
  }
  return graph_maps;
}

}  // namespace deepmap::kernels
