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
// Each round is linear in the graph apart from one sort of the n vertices.
// A graph's signatures live in one flat buffer of n + 2m colors, vertex v
// owning a block of deg(v) + 1 at offsets computed once per graph. Each
// round writes v's own color at the head of its block, then walks the
// vertices in previous-color order and scatters each one's color into its
// neighbors' blocks, so every block comes out already sorted (the
// counting-sort construction of Shervashidze et al. 2011) and is looked up
// where it lies, with no per-vertex sort, gather or copy.
//
// Each iteration's dictionary is one flat table, not a node-based map:
//   - signatures are copied once, on a miss, into an arena of fixed-size
//     uint32_t blocks. Labels are int32 and color ids are uint32 entry
//     indices, so 32 bits hold every element exactly;
//   - one 16-byte record per entry holds a pointer to its signature in the
//     arena, its length and the low half of its hash, and an entry's index
//     in that array IS its color id: a new signature gets id = the number of
//     entries so far;
//   - an open-addressing array of 64-bit tagged slots, (high hash half << 32)
//     | entry index, kept at most half full, is probed linearly from the
//     hash, so a probe rejects a slot of another hash without reading the
//     entries; growing rebuilds each full hash from its tag and its entry.
// The vertices of a graph are looked up in vertex order, so the ids depend
// only on the sequence of graphs refined, never on the hash or the slot
// layout. The arena is chunked rather than one growing vector: doubling a
// vector would hold the old and the new buffer at once, and a block never
// moves, so the entries' key pointers stay valid. A signature never
// straddles two blocks; one longer than a block gets a block of its own. The
// hash runs two lanes of 64-bit multiply-folds, each taking two colors per
// step, both seeded per process: nothing iterates the table, and a seed
// unknown to clients keeps crafted request labels from forcing long probe
// runs.
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

  /// A refinery whose dictionaries hash with `hash_seed` instead of the
  /// per-process seed. No color id depends on the seed; tests pass a weak
  /// one to make distinct signatures share a full hash.
  WlRefinement(const WlConfig& config, uint64_t hash_seed);

  /// The dictionaries' hash of signature[0, length) under `seed`.
  static uint64_t SignatureHash(const uint32_t* signature, uint32_t length,
                                uint64_t seed);

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
    uint32_t FindOrInsert(const uint32_t* signature, uint32_t length);

    size_t size() const { return entries_.size(); }

   private:
    struct Entry {
      const uint32_t* key;  // into blocks_
      uint32_t length;
      uint32_t hash_lo;  // the slot holds the high half
    };
    /// Tag ~0 with index ~0: indices stay below ~0, so no entry's slot.
    static constexpr uint64_t kEmptySlot = ~uint64_t{0};

    /// Copies a signature into the arena; the copy never moves.
    const uint32_t* Store(const uint32_t* signature, uint32_t length);
    /// Doubles the slot array and re-places every entry by its full hash.
    void Grow();

    uint64_t seed_;
    std::vector<std::unique_ptr<uint32_t[]>> blocks_;
    uint32_t* block_next_ = nullptr;  // free tail of the current block
    size_t block_free_ = 0;           // its length
    std::vector<Entry> entries_;  // index == color id
    std::vector<uint64_t> slots_;  // (hash >> 32) << 32 | index, or empty
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
