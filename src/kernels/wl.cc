#include "kernels/wl.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>

#include "common/check.h"

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

/// Colors i and i + 1 of a signature as one word.
uint64_t TwoColors(const uint32_t* colors) {
  uint64_t word;
  std::memcpy(&word, colors, sizeof word);
  return word;
}

/// uint32_t per arena block. A signature is a vertex's color and its
/// neighbors', so only a vertex of degree >= 8192 needs a block of its own.
constexpr size_t kBlockSize = 8192;
constexpr size_t kInitialSlots = 16;  // a power of two
constexpr uint64_t kTagMask = ~uint64_t{0} << 32;

}  // namespace

WlRefinement::Dictionary::Dictionary(uint64_t seed)
    : seed_(seed), slots_(kInitialSlots, kEmptySlot) {}

uint64_t WlRefinement::SignatureHash(const uint32_t* signature,
                                     uint32_t length, uint64_t seed) {
  const uint64_t multiplier = seed | 1;
  // Two independent chains, so their multiplies overlap: lane a takes
  // colors 4j and 4j + 1, lane b colors 4j + 2 and 4j + 3.
  uint64_t a = seed ^ length;
  uint64_t b = seed;
  uint32_t i = 0;
  for (; i + 4 <= length; i += 4) {
    a = FoldedMultiply(a ^ TwoColors(signature + i), multiplier);
    b = FoldedMultiply(b ^ TwoColors(signature + i + 2), multiplier);
  }
  if (length - i >= 2) {
    a = FoldedMultiply(a ^ TwoColors(signature + i), multiplier);
    i += 2;
  }
  if (i < length) b = FoldedMultiply(b ^ signature[i], multiplier);
  // Rotated, so that lanes equal for some crafted signature do not cancel
  // to a seed-independent value.
  return FoldedMultiply(a ^ std::rotl(b, 32), multiplier);
}

uint32_t WlRefinement::Dictionary::FindOrInsert(const uint32_t* signature,
                                                uint32_t length) {
  const uint64_t hash = SignatureHash(signature, length, seed_);
  const uint64_t tag = hash & kTagMask;
  const auto hash_lo = static_cast<uint32_t>(hash);
  const size_t mask = slots_.size() - 1;
  size_t slot = hash & mask;
  for (; slots_[slot] != kEmptySlot; slot = (slot + 1) & mask) {
    if ((slots_[slot] & kTagMask) != tag) continue;
    const auto index = static_cast<uint32_t>(slots_[slot]);
    const Entry& entry = entries_[index];
    if (entry.hash_lo == hash_lo && entry.length == length &&
        std::equal(signature, signature + length, entry.key)) {
      return index;
    }
  }
  // A new signature: the next entry, and so the next color id.
  DEEPMAP_CHECK_LT(entries_.size(), size_t{~uint32_t{0}});
  const auto index = static_cast<uint32_t>(entries_.size());
  entries_.push_back({Store(signature, length), length, hash_lo});
  slots_[slot] = tag | index;
  if (2 * entries_.size() > slots_.size()) Grow();
  return index;
}

const uint32_t* WlRefinement::Dictionary::Store(const uint32_t* signature,
                                                uint32_t length) {
  uint32_t* copy;
  if (length > kBlockSize) {
    // Its own block; the current block keeps its free tail.
    blocks_.push_back(std::make_unique_for_overwrite<uint32_t[]>(length));
    copy = blocks_.back().get();
  } else {
    if (length > block_free_) {
      blocks_.push_back(
          std::make_unique_for_overwrite<uint32_t[]>(kBlockSize));
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
  std::vector<uint64_t> slots(2 * slots_.size(), kEmptySlot);
  const size_t mask = slots.size() - 1;
  for (const uint64_t tagged : slots_) {
    if (tagged == kEmptySlot) continue;
    const uint64_t hash =
        (tagged & kTagMask) | entries_[static_cast<uint32_t>(tagged)].hash_lo;
    size_t slot = hash & mask;
    while (slots[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots[slot] = tagged;
  }
  slots_.swap(slots);
}

WlRefinement::WlRefinement(const WlConfig& config)
    : WlRefinement(config, ProcessHashSeed()) {}

WlRefinement::WlRefinement(const WlConfig& config, uint64_t hash_seed)
    : config_(config) {
  DEEPMAP_CHECK_GE(config.iterations, 0);
  dictionaries_.reserve(static_cast<size_t>(config.iterations));
  for (int h = 0; h < config.iterations; ++h) {
    dictionaries_.emplace_back(hash_seed);
  }
}

std::vector<std::vector<int64_t>> WlRefinement::Refine(const graph::Graph& g) {
  const auto n = static_cast<size_t>(g.NumVertices());
  std::vector<std::vector<int64_t>> colors(config_.iterations + 1);
  colors[0].resize(n);
  // The previous round's colors. Labels are int32 and ids uint32, so 32
  // bits hold both exactly; a negative label only sorts differently, which
  // changes no id (equal multisets still give equal sorted blocks).
  std::vector<uint32_t> prev(n);
  for (size_t v = 0; v < n; ++v) {
    const graph::Label label = g.GetLabel(static_cast<graph::Vertex>(v));
    colors[0][v] = label;
    prev[v] = static_cast<uint32_t>(label);
  }
  if (config_.iterations == 0) return colors;
  // Vertex v's signature is signatures[offset[v], offset[v + 1]): its own
  // color, then its neighbors' in ascending order.
  std::vector<size_t> offset(n + 1);
  for (size_t v = 0; v < n; ++v) {
    offset[v + 1] =
        offset[v] + 1 + g.Neighbors(static_cast<graph::Vertex>(v)).size();
  }
  std::vector<uint32_t> signatures(offset[n]);
  std::vector<size_t> cursor(n);
  std::vector<uint64_t> by_color(n);  // color << 32 | vertex
  for (int h = 1; h <= config_.iterations; ++h) {
    auto& dict = dictionaries_[h - 1];
    for (size_t v = 0; v < n; ++v) {
      signatures[offset[v]] = prev[v];
      cursor[v] = offset[v] + 1;
      by_color[v] = uint64_t{prev[v]} << 32 | v;
    }
    // Visiting the vertices by color appends each block's neighbor colors
    // in ascending order.
    std::sort(by_color.begin(), by_color.end());
    for (const uint64_t key : by_color) {
      const auto color = static_cast<uint32_t>(key >> 32);
      for (graph::Vertex x : g.Neighbors(static_cast<graph::Vertex>(key))) {
        signatures[cursor[static_cast<size_t>(x)]++] = color;
      }
    }
    colors[h].resize(n);
    for (size_t v = 0; v < n; ++v) {
      prev[v] = dict.FindOrInsert(
          signatures.data() + offset[v],
          static_cast<uint32_t>(offset[v + 1] - offset[v]));
      colors[h][v] = prev[v];
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
