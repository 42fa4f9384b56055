#include "kernels/wl.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <random>

#include "common/check.h"
#include "graph/ordered_adjacency.h"

namespace deepmap::kernels {
namespace {

/// Drawn once per process, so clients cannot predict bucket collisions.
uint64_t ProcessHashSeed() {
  static const uint64_t seed = [] {
    std::random_device device;
    const uint64_t entropy = (uint64_t{device()} << 32) ^ device();
    return entropy ^ static_cast<uint64_t>(
                         std::chrono::steady_clock::now()
                             .time_since_epoch()
                             .count());
  }();
  return seed;
}

/// High and low halves of the 128-bit product, folded. A product mod 2^64
/// would let a crafted top-bit difference pass through unchanged for every
/// seed, (a ^ 2^63) * k == (a * k) ^ 2^63 for odd k, and be cancelled by the
/// next color; in the high half it depends on the seeded multiplier.
uint64_t FoldedMultiply(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

/// int64_t per arena block. A signature is a vertex's color and its
/// neighbors', so only a vertex of degree >= 8192 needs a block of its own.
constexpr size_t kBlockSize = 8192;
constexpr size_t kInitialSlots = 16;  // a power of two

}  // namespace

WlRefinement::Dictionary::Dictionary(uint64_t seed)
    : seed_(seed), slots_(kInitialSlots, kEmptySlot) {}

uint64_t WlRefinement::Dictionary::Hash(const int64_t* signature,
                                        size_t length) const {
  const uint64_t multiplier = seed_ | 1;
  uint64_t h = seed_ ^ length;
  for (size_t i = 0; i < length; ++i) {
    h = FoldedMultiply(h ^ static_cast<uint64_t>(signature[i]), multiplier);
  }
  return h;
}

int64_t WlRefinement::Dictionary::FindOrInsert(const int64_t* signature,
                                               size_t length) {
  const uint64_t hash = Hash(signature, length);
  const size_t mask = slots_.size() - 1;
  size_t slot = hash & mask;
  for (; slots_[slot] != kEmptySlot; slot = (slot + 1) & mask) {
    const uint32_t index = slots_[slot];
    const Entry& entry = entries_[index];
    if (entry.hash == hash && entry.length == length &&
        std::equal(signature, signature + length, entry.key)) {
      return index;
    }
  }
  // A new signature: the next entry, and so the next color id.
  DEEPMAP_CHECK_LT(entries_.size(), size_t{kEmptySlot});
  const auto index = static_cast<uint32_t>(entries_.size());
  entries_.push_back({hash, Store(signature, length), length});
  slots_[slot] = index;
  if (2 * entries_.size() > slots_.size()) Grow();
  return index;
}

const int64_t* WlRefinement::Dictionary::Store(const int64_t* signature,
                                               size_t length) {
  int64_t* copy;
  if (length > kBlockSize) {
    // Its own block; the current block keeps its free tail.
    blocks_.push_back(std::make_unique_for_overwrite<int64_t[]>(length));
    copy = blocks_.back().get();
  } else {
    if (length > block_free_) {
      blocks_.push_back(std::make_unique_for_overwrite<int64_t[]>(kBlockSize));
      block_next_ = blocks_.back().get();
      block_free_ = kBlockSize;
    }
    copy = block_next_;
    block_next_ += length;
    block_free_ -= length;
  }
  std::copy(signature, signature + length, copy);
  return copy;
}

void WlRefinement::Dictionary::Grow() {
  std::vector<uint32_t> slots(2 * slots_.size(), kEmptySlot);
  const size_t mask = slots.size() - 1;
  for (size_t index = 0; index < entries_.size(); ++index) {
    size_t slot = entries_[index].hash & mask;
    while (slots[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots[slot] = static_cast<uint32_t>(index);
  }
  slots_.swap(slots);
}

WlRefinement::WlRefinement(const WlConfig& config) : config_(config) {
  DEEPMAP_CHECK_GE(config.iterations, 0);
  dictionaries_.reserve(static_cast<size_t>(config.iterations));
  for (int h = 0; h < config.iterations; ++h) {
    dictionaries_.emplace_back(ProcessHashSeed());
  }
}

std::vector<std::vector<int64_t>> WlRefinement::Refine(const graph::Graph& g) {
  const int n = g.NumVertices();
  std::vector<std::vector<int64_t>> colors(config_.iterations + 1);
  colors[0].resize(n);
  for (graph::Vertex v = 0; v < n; ++v) colors[0][v] = g.GetLabel(v);
  std::vector<graph::Vertex> by_color(static_cast<size_t>(n));
  // One reusable signature buffer: the dictionary copies it into its arena
  // only on a miss (a new color).
  std::vector<int64_t> signature;
  for (int h = 1; h <= config_.iterations; ++h) {
    const std::vector<int64_t>& prev = colors[h - 1];
    auto& dict = dictionaries_[h - 1];
    colors[h].resize(n);
    // Neighbor lists ordered by previous color: each signature is then
    // sorted as it is read off.
    std::iota(by_color.begin(), by_color.end(), 0);
    std::sort(by_color.begin(), by_color.end(),
              [&](graph::Vertex a, graph::Vertex b) {
                return prev[a] < prev[b];
              });
    const graph::OrderedAdjacency adjacency(g, by_color);
    for (graph::Vertex v = 0; v < n; ++v) {
      signature.clear();
      signature.push_back(prev[v]);
      for (graph::Vertex u : adjacency.Neighbors(v)) {
        signature.push_back(prev[u]);
      }
      colors[h][v] = dict.FindOrInsert(signature.data(), signature.size());
    }
  }
  return colors;
}

size_t WlRefinement::NumColorsAtIteration(int h) const {
  DEEPMAP_CHECK_GE(h, 1);
  DEEPMAP_CHECK_LE(h, config_.iterations);
  return dictionaries_[h - 1].size();
}

FeatureId PackWlFeature(int iteration, int64_t color) {
  DEEPMAP_CHECK_GE(iteration, 0);
  DEEPMAP_CHECK_LT(iteration, 1 << 8);
  DEEPMAP_CHECK_GE(color, 0);
  DEEPMAP_CHECK_LT(color, int64_t{1} << 48);
  return (static_cast<FeatureId>(iteration) << 48) |
         static_cast<FeatureId>(color);
}

std::vector<SparseFeatureMap> VertexWlFeatureMaps(const graph::Graph& g,
                                                  WlRefinement& refinery) {
  const auto colors = refinery.Refine(g);
  std::vector<SparseFeatureMap> features(g.NumVertices());
  for (int h = 0; h < static_cast<int>(colors.size()); ++h) {
    for (graph::Vertex v = 0; v < g.NumVertices(); ++v) {
      features[v].Add(PackWlFeature(h, colors[h][v]));
    }
  }
  return features;
}

SparseFeatureMap WlFeatureMap(const graph::Graph& g, WlRefinement& refinery) {
  return SumFeatureMaps(VertexWlFeatureMaps(g, refinery));
}

std::vector<std::vector<SparseFeatureMap>> VertexWlFeatureMapsForGraphs(
    const std::vector<graph::Graph>& graphs, const WlConfig& config) {
  WlRefinement refinery(config);
  std::vector<std::vector<SparseFeatureMap>> result;
  result.reserve(graphs.size());
  for (const graph::Graph& g : graphs) {
    result.push_back(VertexWlFeatureMaps(g, refinery));
  }
  return result;
}

}  // namespace deepmap::kernels
