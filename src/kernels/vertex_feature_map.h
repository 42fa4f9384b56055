// Unified vertex-feature-map computation over a dataset — the input that
// DEEPMAP's CNN (and the Table 4 GNN variants) consume.
//
// Selects one of the three substructure families (graphlet / shortest-path /
// WL subtree), computes per-vertex sparse maps for every graph with shared
// state where needed (WL dictionary), and builds the dataset vocabulary that
// defines the dense feature dimension m.
#ifndef DEEPMAP_KERNELS_VERTEX_FEATURE_MAP_H_
#define DEEPMAP_KERNELS_VERTEX_FEATURE_MAP_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/dataset.h"
#include "kernels/feature_map.h"
#include "kernels/graphlet.h"
#include "kernels/shortest_path.h"
#include "kernels/treepp.h"
#include "kernels/wl.h"

namespace deepmap::kernels {

/// Which substructure family backs the feature maps.
enum class FeatureMapKind {
  kGraphlet,
  kShortestPath,
  kWlSubtree,
  /// Tree++ path patterns (extension; the paper's reference [8]).
  kTreePp,
};

/// Short human-readable name ("GK", "SP", "WL", "TREEPP").
std::string FeatureMapKindName(FeatureMapKind kind);

/// Configuration bundle for ComputeDatasetVertexFeatures.
struct VertexFeatureConfig {
  FeatureMapKind kind = FeatureMapKind::kWlSubtree;
  GraphletConfig graphlet;
  ShortestPathConfig shortest_path;
  WlConfig wl;
  TreePpConfig treepp;
  /// If > 0 and the vocabulary exceeds it, densification uses modulo feature
  /// hashing to this dimension instead of the full vocabulary.
  int max_dense_dim = 0;
  /// Apply log1p to counts when densifying (stabilizes CNN training on
  /// heavy-tailed substructure counts; sparse kernel computations are
  /// unaffected).
  bool log_scale_dense = true;
  /// Scale each dense column by its inverse RMS over all vertices of the
  /// dataset. Zero entries stay zero, so dummy-padding invariance is
  /// preserved; this equalizes gradient scales across rare/frequent
  /// substructures and is required for SP features to train in reasonable
  /// time.
  bool normalize_dense = true;
  /// Seed for graphlet sampling.
  uint64_t seed = 42;
};

/// One nonzero of a densified vertex row.
struct RowEntry {
  int32_t col = 0;
  double value = 0.0;
};

/// Vertex feature maps for a whole dataset plus the densification scheme.
class DatasetVertexFeatures {
 public:
  DatasetVertexFeatures(std::vector<std::vector<SparseFeatureMap>> features,
                        int max_dense_dim, bool log_scale_dense = true,
                        bool normalize_dense = true);

  /// Sparse map of vertex v in graph g.
  const SparseFeatureMap& Get(int g, int v) const;

  /// Per-graph vector of per-vertex maps.
  const std::vector<std::vector<SparseFeatureMap>>& all() const {
    return features_;
  }

  /// Dense feature dimension m (vocabulary size, or the hash dimension when
  /// hashing is active).
  int dim() const { return dim_; }

  /// Number of distinct substructures observed across the dataset.
  size_t vocabulary_size() const { return vocabulary_.size(); }

  bool uses_hashing() const { return uses_hashing_; }

  /// Per-column factors applied after log scaling (empty when
  /// normalization is off).
  const std::vector<double>& column_scale() const { return column_scale_; }

  /// Dense vector of length dim() for vertex v of graph g.
  std::vector<double> DenseRow(int g, int v) const;

  /// Nonzero entries of DensifyRow(map), by ascending column: the training
  /// vocabulary lookup (ids unseen at training time are dropped) or the
  /// hash-bucket merge, then log scaling and the training-time column
  /// scales, applied to the nonzeros only. Colliding ids are summed in id
  /// order and every value takes the same double operations as the dense
  /// path, so each entry is bit-equal to its DensifyRow column (counts are
  /// nonnegative, so a dropped entry is exactly +0.0 there). This is what
  /// serving-time preprocessing uses for request graphs.
  std::vector<RowEntry> SparseRow(const SparseFeatureMap& map) const;

  /// SparseRow(map) scattered into a zero vector of length dim().
  std::vector<double> DensifyRow(const SparseFeatureMap& map) const;

  /// Graph-level feature map of graph g (Eq. 7 sum over vertices).
  SparseFeatureMap GraphFeatureMap(int g) const;

 private:
  std::vector<std::vector<SparseFeatureMap>> features_;
  Vocabulary vocabulary_;
  int dim_ = 0;
  bool uses_hashing_ = false;
  bool log_scale_dense_ = true;
  /// Per-column inverse-RMS factors (empty when normalization is off).
  std::vector<double> column_scale_;
};

/// Computes per-vertex feature maps for every graph in `dataset`.
DatasetVertexFeatures ComputeDatasetVertexFeatures(
    const graph::GraphDataset& dataset, const VertexFeatureConfig& config);

/// Graph-level feature maps for every graph (used by the kernel baselines).
std::vector<SparseFeatureMap> ComputeGraphFeatureMaps(
    const graph::GraphDataset& dataset, const VertexFeatureConfig& config);

}  // namespace deepmap::kernels

#endif  // DEEPMAP_KERNELS_VERTEX_FEATURE_MAP_H_
