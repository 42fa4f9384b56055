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
#include <utility>
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

/// Every vertex's (id, count) entries in one array, graph by graph and
/// vertex by vertex, each row by ascending id: the per-vertex maps without
/// a node per entry.
struct VertexRows {
  std::vector<std::pair<FeatureId, double>> entries;
  /// Row i is entries[i == 0 ? 0 : ends[i - 1], ends[i]).
  std::vector<size_t> ends;

  void EndRow() { ends.push_back(entries.size()); }

  /// The rows of maps[g][v], in that order.
  static VertexRows Of(const std::vector<std::vector<SparseFeatureMap>>& maps);
};

/// Vertex feature maps for a whole dataset plus the densification scheme.
class DatasetVertexFeatures {
 public:
  DatasetVertexFeatures(std::vector<std::vector<SparseFeatureMap>> features,
                        int max_dense_dim, bool log_scale_dense = true,
                        bool normalize_dense = true);

  /// The densification scheme of `rows` alone, the same as that of their
  /// maps; all() is empty, so Get, DenseRow and GraphFeatureMap have no
  /// graph to read. Serving needs only the scheme.
  DatasetVertexFeatures(const VertexRows& rows, int max_dense_dim,
                        bool log_scale_dense, bool normalize_dense);

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

  /// SparseRow of the map whose (id, count) pairs, by ascending id, are
  /// entries[0, k), written to out[0, return value); `out` has room for k.
  /// One stable insertion sort by column and no allocation: the serve path
  /// builds a WL vertex's row from its H+1 colors this way, without a
  /// SparseFeatureMap. SparseRow(map) is this over the map's entries.
  size_t SparseRowInto(const std::pair<FeatureId, double>* entries, size_t k,
                       RowEntry* out) const;

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

/// Per-vertex feature maps of every graph in `dataset`: result[g][v].
std::vector<std::vector<SparseFeatureMap>> ComputeDatasetVertexMaps(
    const graph::GraphDataset& dataset, const VertexFeatureConfig& config);

/// ComputeDatasetVertexMaps with their densification scheme.
DatasetVertexFeatures ComputeDatasetVertexFeatures(
    const graph::GraphDataset& dataset, const VertexFeatureConfig& config);

/// Graph-level feature maps for every graph (used by the kernel baselines).
std::vector<SparseFeatureMap> ComputeGraphFeatureMaps(
    const graph::GraphDataset& dataset, const VertexFeatureConfig& config);

}  // namespace deepmap::kernels

#endif  // DEEPMAP_KERNELS_VERTEX_FEATURE_MAP_H_
