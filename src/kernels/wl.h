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
// vertex.
//
// Each iteration's dictionary is one flat table, not a node-based map:
//   - signatures are copied once into an arena of fixed-size int64_t blocks;
//   - one record per entry holds its hash, a pointer to its signature in the
//     arena and its length, and an entry's index in that array IS its color
//     id: a new signature gets id = the number of entries so far;
//   - an open-addressing slot array of entry indices, kept at most half
//     full, is probed linearly from the signature's hash.
// The vertices of a graph are looked up in vertex order, so the ids depend
// only on the sequence of graphs refined, never on the hash or the slot
// layout. The arena is chunked rather than one growing vector: doubling a
// vector would hold the old and the new buffer at once, and a block never
// moves, so the entries' key pointers stay valid. A signature never
// straddles two blocks; one longer than a block gets a block of its own. The
// hash is seeded per process: nothing iterates the table, and a seed unknown
// to clients keeps crafted request labels from forcing long probe runs.
#ifndef DEEPMAP_KERNELS_WL_H_
#define DEEPMAP_KERNELS_WL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// One iteration's signature -> color dictionary (see the file comment).
  class Dictionary {
   public:
    explicit Dictionary(uint64_t seed);

    /// Color id of `signature[0, length)`, inserted as id size() if new.
    int64_t FindOrInsert(const int64_t* signature, size_t length);

    size_t size() const { return entries_.size(); }

   private:
    struct Entry {
      uint64_t hash;
      const int64_t* key;  // into blocks_
      size_t length;
    };
    static constexpr uint32_t kEmptySlot = ~uint32_t{0};

    uint64_t Hash(const int64_t* signature, size_t length) const;
    /// Copies a signature into the arena; the copy never moves.
    const int64_t* Store(const int64_t* signature, size_t length);
    /// Doubles the slot array and re-places every entry by its hash.
    void Grow();

    uint64_t seed_;
    std::vector<std::unique_ptr<int64_t[]>> blocks_;
    int64_t* block_next_ = nullptr;  // free tail of the current block
    size_t block_free_ = 0;          // its length
    std::vector<Entry> entries_;  // index == color id
    std::vector<uint32_t> slots_;  // entry index or kEmptySlot
  };

  WlConfig config_;
  // One dictionary per iteration (1-based; iteration 0 uses raw labels).
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
