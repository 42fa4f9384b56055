#include "kernels/graphlet.h"

#include <algorithm>
#include <mutex>
#include <set>

#include "common/check.h"
#include "graph/isomorphism.h"

namespace deepmap::kernels {
namespace {

using graph::Graph;
using graph::Vertex;

// Grows a random connected-ish vertex set of size k containing `seed`:
// repeatedly adds a uniformly random frontier vertex; when the component is
// exhausted, falls back to a uniformly random outside vertex (yielding a
// disconnected graphlet, which the catalog covers).
std::vector<Vertex> SampleVertexSetAround(const Graph& g, Vertex seed, int k,
                                          Rng& rng) {
  std::vector<Vertex> chosen{seed};
  std::vector<bool> in_set(g.NumVertices(), false);
  in_set[seed] = true;
  while (static_cast<int>(chosen.size()) < k &&
         static_cast<int>(chosen.size()) < g.NumVertices()) {
    std::vector<Vertex> frontier;
    for (Vertex u : chosen) {
      for (Vertex w : g.Neighbors(u)) {
        if (!in_set[w]) frontier.push_back(w);
      }
    }
    Vertex next;
    if (!frontier.empty()) {
      // Duplicates in `frontier` bias selection toward vertices with more
      // edges into the current set, mimicking neighborhood expansion.
      next = frontier[rng.Index(frontier.size())];
    } else {
      std::vector<Vertex> outside;
      for (Vertex w = 0; w < g.NumVertices(); ++w) {
        if (!in_set[w]) outside.push_back(w);
      }
      next = outside[rng.Index(outside.size())];
    }
    in_set[next] = true;
    chosen.push_back(next);
  }
  return chosen;
}

// Canonical mask of the induced subgraph on `vertices`, padded with isolated
// vertices up to size k when the graph has fewer than k vertices.
uint32_t CanonicalMaskOfInduced(const Graph& g,
                                const std::vector<Vertex>& vertices, int k) {
  Graph sub = g.InducedSubgraph(vertices);
  while (sub.NumVertices() < k) sub.AddVertex();
  for (Vertex v = 0; v < sub.NumVertices(); ++v) sub.SetLabel(v, 0);
  return graph::CanonicalEdgeMask(sub);
}

}  // namespace

GraphletCatalog::GraphletCatalog(int k) : k_(k) {
  DEEPMAP_CHECK_GE(k, 2);
  DEEPMAP_CHECK_LE(k, 5);
  std::set<uint32_t> masks;
  const uint32_t num_pairs = static_cast<uint32_t>(k * (k - 1) / 2);
  for (uint32_t mask = 0; mask < (uint32_t{1} << num_pairs); ++mask) {
    masks.insert(graph::CanonicalEdgeMask(graph::GraphFromEdgeMask(k, mask)));
  }
  canonical_masks_.assign(masks.begin(), masks.end());
}

int GraphletCatalog::IndexOf(const graph::Graph& g) const {
  DEEPMAP_CHECK_EQ(g.NumVertices(), k_);
  return IndexOfCanonicalMask(graph::CanonicalEdgeMask(g));
}

int GraphletCatalog::IndexOfCanonicalMask(uint32_t mask) const {
  auto it = std::lower_bound(canonical_masks_.begin(), canonical_masks_.end(),
                             mask);
  DEEPMAP_CHECK(it != canonical_masks_.end() && *it == mask);
  return static_cast<int>(it - canonical_masks_.begin());
}

graph::Graph GraphletCatalog::Exemplar(int index) const {
  DEEPMAP_CHECK_GE(index, 0);
  DEEPMAP_CHECK_LT(index, size());
  return graph::GraphFromEdgeMask(k_, canonical_masks_[index]);
}

const GraphletCatalog& GetGraphletCatalog(int k) {
  DEEPMAP_CHECK_GE(k, 2);
  DEEPMAP_CHECK_LE(k, 5);
  // Never-destroyed singletons (static storage must be trivially
  // destructible; the catalog is immutable after construction). call_once
  // builds each exactly once even when concurrent preprocessing threads
  // race to it.
  static std::once_flag once[6];
  static const GraphletCatalog* catalogs[6] = {nullptr};
  std::call_once(once[k], [k] { catalogs[k] = new GraphletCatalog(k); });
  return *catalogs[k];
}

std::vector<SparseFeatureMap> VertexGraphletFeatureMaps(
    const graph::Graph& g, const GraphletConfig& config, Rng& rng) {
  const GraphletCatalog& catalog = GetGraphletCatalog(config.k);
  std::vector<SparseFeatureMap> features(g.NumVertices());
  if (config.exhaustive) {
    DEEPMAP_CHECK_EQ(config.k, 3);
    // Enumerate every induced size-3 subgraph; credit all three vertices.
    for (Vertex a = 0; a < g.NumVertices(); ++a) {
      for (Vertex b = a + 1; b < g.NumVertices(); ++b) {
        for (Vertex c = b + 1; c < g.NumVertices(); ++c) {
          uint32_t mask = CanonicalMaskOfInduced(g, {a, b, c}, 3);
          FeatureId id =
              static_cast<FeatureId>(catalog.IndexOfCanonicalMask(mask));
          features[a].Add(id);
          features[b].Add(id);
          features[c].Add(id);
        }
      }
    }
    return features;
  }
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (int s = 0; s < config.samples_per_vertex; ++s) {
      auto vertices = SampleVertexSetAround(g, v, config.k, rng);
      uint32_t mask = CanonicalMaskOfInduced(g, vertices, config.k);
      features[v].Add(
          static_cast<FeatureId>(catalog.IndexOfCanonicalMask(mask)));
    }
  }
  return features;
}

SparseFeatureMap GraphletFeatureMap(const graph::Graph& g,
                                    const GraphletConfig& config, Rng& rng) {
  return SumFeatureMaps(VertexGraphletFeatureMaps(g, config, rng));
}

SparseFeatureMap ExactSize3GraphletCounts(const graph::Graph& g) {
  const GraphletCatalog& catalog = GetGraphletCatalog(3);
  SparseFeatureMap counts;
  for (Vertex a = 0; a < g.NumVertices(); ++a) {
    for (Vertex b = a + 1; b < g.NumVertices(); ++b) {
      for (Vertex c = b + 1; c < g.NumVertices(); ++c) {
        uint32_t mask = CanonicalMaskOfInduced(g, {a, b, c}, 3);
        counts.Add(static_cast<FeatureId>(catalog.IndexOfCanonicalMask(mask)));
      }
    }
  }
  return counts;
}

}  // namespace deepmap::kernels
