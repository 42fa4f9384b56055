// Sparse feature maps (the paper's Definitions 2 and 3) and the vocabulary
// that maps observed substructure ids to dense column indices.
//
// Feature ids are canonical 64-bit keys derived from the substructure itself
// (graphlet catalog index, packed shortest-path triplet, WL color), so maps
// computed for different graphs are directly comparable without any shared
// mutable state; the Vocabulary is only needed to densify maps for the CNN.
#ifndef DEEPMAP_KERNELS_FEATURE_MAP_H_
#define DEEPMAP_KERNELS_FEATURE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace deepmap::kernels {

/// Canonical identifier of an atomic substructure.
using FeatureId = uint64_t;

/// Sparse multiset of substructure counts: the phi(.) of Definitions 2/3.
/// Entries are kept in id order, so iteration is deterministic.
class SparseFeatureMap {
 public:
  SparseFeatureMap() = default;

  /// Adds `count` occurrences of feature `id`.
  void Add(FeatureId id, double count = 1.0);

  /// Count for `id` (0 when absent).
  double Get(FeatureId id) const;

  /// Number of distinct features present.
  size_t NumNonZero() const { return counts_.size(); }

  bool empty() const { return counts_.empty(); }

  /// Sorted (id, count) view.
  const std::map<FeatureId, double>& entries() const { return counts_; }

  /// Elementwise sum (Eq. 7: a graph map is the sum of its vertex maps).
  SparseFeatureMap& operator+=(const SparseFeatureMap& other);

  /// Inner product <phi(a), phi(b)> — the R-convolution kernel value.
  double Dot(const SparseFeatureMap& other) const;

  /// Euclidean norm sqrt(<phi, phi>).
  double L2Norm() const;

  /// Sum of all counts.
  double TotalCount() const;

 private:
  std::map<FeatureId, double> counts_;
};

/// Sum of the vertex feature maps of one graph (Eq. 7).
SparseFeatureMap SumFeatureMaps(const std::vector<SparseFeatureMap>& maps);

/// Maps the FeatureIds observed in a dataset to dense columns [0, size()).
/// Build once over the reference (training) collection, then densify any map
/// against it; unseen ids are dropped (or hashed, see DensifyHashed).
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Registers every id in `map`.
  void AddAll(const SparseFeatureMap& map);

  /// Dense column of `id`, or -1 if unseen.
  int64_t ColumnOf(FeatureId id) const;

  size_t size() const { return columns_.size(); }

  /// Dense vector of length size(); unseen ids are dropped.
  std::vector<double> Densify(const SparseFeatureMap& map) const;

 private:
  std::map<FeatureId, int64_t> columns_;
};

/// Column of `id` under modulo feature hashing to `dim` columns.
size_t HashedColumn(FeatureId id, size_t dim);

/// Dense vector of length `dim` via modulo feature hashing (HashedColumn).
/// Collisions add; used to bound CNN input width when vocabularies are huge.
std::vector<double> DensifyHashed(const SparseFeatureMap& map, size_t dim);

}  // namespace deepmap::kernels

#endif  // DEEPMAP_KERNELS_FEATURE_MAP_H_
