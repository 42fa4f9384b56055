#include "kernels/feature_map.h"

#include <cmath>

#include "common/check.h"

namespace deepmap::kernels {

void SparseFeatureMap::Add(FeatureId id, double count) {
  if (count == 0.0) return;
  counts_[id] += count;
}

double SparseFeatureMap::Get(FeatureId id) const {
  auto it = counts_.find(id);
  return it == counts_.end() ? 0.0 : it->second;
}

SparseFeatureMap& SparseFeatureMap::operator+=(const SparseFeatureMap& other) {
  for (const auto& [id, count] : other.counts_) counts_[id] += count;
  return *this;
}

double SparseFeatureMap::Dot(const SparseFeatureMap& other) const {
  // Walk the smaller map, probe the larger.
  const SparseFeatureMap* small = this;
  const SparseFeatureMap* large = &other;
  if (small->counts_.size() > large->counts_.size()) std::swap(small, large);
  double dot = 0.0;
  for (const auto& [id, count] : small->counts_) {
    auto it = large->counts_.find(id);
    if (it != large->counts_.end()) dot += count * it->second;
  }
  return dot;
}

double SparseFeatureMap::L2Norm() const { return std::sqrt(Dot(*this)); }

double SparseFeatureMap::TotalCount() const {
  double total = 0.0;
  for (const auto& [id, count] : counts_) total += count;
  return total;
}

SparseFeatureMap SumFeatureMaps(const std::vector<SparseFeatureMap>& maps) {
  SparseFeatureMap sum;
  for (const SparseFeatureMap& m : maps) sum += m;
  return sum;
}

void Vocabulary::Add(FeatureId id) {
  columns_.try_emplace(id, static_cast<int64_t>(columns_.size()));
}

void Vocabulary::AddAll(const SparseFeatureMap& map) {
  for (const auto& [id, count] : map.entries()) Add(id);
}

int64_t Vocabulary::ColumnOf(FeatureId id) const {
  auto it = columns_.find(id);
  return it == columns_.end() ? -1 : it->second;
}

std::vector<double> Vocabulary::Densify(const SparseFeatureMap& map) const {
  std::vector<double> dense(columns_.size(), 0.0);
  for (const auto& [id, count] : map.entries()) {
    int64_t column = ColumnOf(id);
    if (column >= 0) dense[static_cast<size_t>(column)] += count;
  }
  return dense;
}

size_t HashedColumn(FeatureId id, size_t dim) {
  // Multiplicative mixing before the modulo so that ids that share low bits
  // (packed triplets) spread across columns.
  return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) % dim);
}

std::vector<double> DensifyHashed(const SparseFeatureMap& map, size_t dim) {
  DEEPMAP_CHECK_GT(dim, 0u);
  std::vector<double> dense(dim, 0.0);
  for (const auto& [id, count] : map.entries()) {
    dense[HashedColumn(id, dim)] += count;
  }
  return dense;
}

}  // namespace deepmap::kernels
