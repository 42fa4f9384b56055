// Weisfeiler-Lehman subtree kernel (WL) feature maps (Shervashidze et al.,
// JMLR 2011; the paper's Eqs. 4-5).
//
// Color refinement compresses each vertex's (own color, sorted neighbor
// colors) signature into a new color via a dictionary that is SHARED across
// all graphs refined by the same WlRefinement instance, so colors (and
// therefore features) are comparable across a dataset. The feature map of a
// graph is the concatenation over iterations h = 0..H of per-color counts
// (Eq. 5); the per-vertex map (Definition 3) contributes one count per
// (iteration, color-of-v) pair — the subtree patterns rooted at v.
//
// Each round is linear in the graph apart from one sort of the n vertices:
// the vertices are ordered by their previous color and a flat adjacency is
// built in that order (graph::OrderedAdjacency), so every neighbor list — and
// with it every signature — comes out already sorted (the counting-sort
// construction of Shervashidze et al. 2011) instead of being sorted per
// vertex. Signatures are looked up in a hash table per iteration. A new
// signature gets id = the dictionary's size at its first insertion, and the
// vertices of a graph are looked up in ascending id order, so the ids depend
// only on the sequence of graphs refined, never on the hash. The table's
// hash is seeded per process: nothing iterates it, and a seed unknown to
// clients keeps crafted request labels from forcing long collision chains.
#ifndef DEEPMAP_KERNELS_WL_H_
#define DEEPMAP_KERNELS_WL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "kernels/feature_map.h"

namespace deepmap::kernels {

/// Configuration for WL feature extraction.
struct WlConfig {
  /// Number of refinement iterations H; the paper selects from {0..5}.
  int iterations = 3;
};

/// Stateful WL color refinery with dictionaries shared across graphs.
class WlRefinement {
 public:
  explicit WlRefinement(const WlConfig& config = {});

  int iterations() const { return config_.iterations; }

  /// Refines one graph. Returns colors[h][v] for h = 0..iterations(); row 0
  /// holds the original vertex labels. Dictionaries persist across calls, so
  /// refining graph A then B yields colors comparable between A and B.
  std::vector<std::vector<int64_t>> Refine(const graph::Graph& g);

  /// Number of distinct compressed colors created at iteration h (1-based).
  size_t NumColorsAtIteration(int h) const;

 private:
  /// Seeded hash of a signature (the seed is drawn once per process).
  struct SignatureHash {
    uint64_t seed;
    size_t operator()(const std::vector<int64_t>& signature) const;
  };
  using Dictionary =
      std::unordered_map<std::vector<int64_t>, int64_t, SignatureHash>;

  WlConfig config_;
  // One signature -> color dictionary per iteration (1-based; iteration 0
  // uses raw labels).
  std::vector<Dictionary> dictionaries_;
};

/// Packs (iteration, color) into a FeatureId.
FeatureId PackWlFeature(int iteration, int64_t color);

/// Per-vertex WL feature maps for one graph using a shared refinery.
std::vector<SparseFeatureMap> VertexWlFeatureMaps(const graph::Graph& g,
                                                  WlRefinement& refinery);

/// Graph-level WL feature map (Eq. 5), equal to the sum of vertex maps.
SparseFeatureMap WlFeatureMap(const graph::Graph& g, WlRefinement& refinery);

/// Convenience: per-vertex WL maps for a whole set of graphs with one shared
/// refinery. result[g][v].
std::vector<std::vector<SparseFeatureMap>> VertexWlFeatureMapsForGraphs(
    const std::vector<graph::Graph>& graphs, const WlConfig& config = {});

}  // namespace deepmap::kernels

#endif  // DEEPMAP_KERNELS_WL_H_
