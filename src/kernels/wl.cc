#include "kernels/wl.h"

#include <algorithm>
#include <chrono>
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

}  // namespace

size_t WlRefinement::SignatureHash::operator()(
    const std::vector<int64_t>& signature) const {
  const uint64_t multiplier = seed | 1;
  uint64_t h = seed ^ signature.size();
  for (int64_t color : signature) {
    h = FoldedMultiply(h ^ static_cast<uint64_t>(color), multiplier);
  }
  return static_cast<size_t>(h);
}

WlRefinement::WlRefinement(const WlConfig& config) : config_(config) {
  DEEPMAP_CHECK_GE(config.iterations, 0);
  dictionaries_.reserve(static_cast<size_t>(config.iterations));
  for (int h = 0; h < config.iterations; ++h) {
    dictionaries_.emplace_back(0, SignatureHash{ProcessHashSeed()});
  }
}

std::vector<std::vector<int64_t>> WlRefinement::Refine(const graph::Graph& g) {
  const int n = g.NumVertices();
  std::vector<std::vector<int64_t>> colors(config_.iterations + 1);
  colors[0].resize(n);
  for (graph::Vertex v = 0; v < n; ++v) colors[0][v] = g.GetLabel(v);
  std::vector<graph::Vertex> by_color(static_cast<size_t>(n));
  // One reusable signature buffer: the dictionary lookup is by value, so the
  // buffer is only copied into the table on a miss (a new color).
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
      auto it = dict.find(signature);
      if (it == dict.end()) {
        const auto id = static_cast<int64_t>(dict.size());
        it = dict.emplace(signature, id).first;
      }
      colors[h][v] = it->second;
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
