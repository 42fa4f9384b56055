// Graph isomorphism utilities: exact canonicalization for small graphs
// (used to identify graphlets), the Weisfeiler-Lehman isomorphism test for
// larger graphs, and a combined tester.
#ifndef DEEPMAP_GRAPH_ISOMORPHISM_H_
#define DEEPMAP_GRAPH_ISOMORPHISM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace deepmap::graph {

/// Largest vertex count for which exact (brute-force) canonicalization runs.
inline constexpr int kMaxExactCanonicalVertices = 8;

/// Canonical form of a labeled graph with <= kMaxExactCanonicalVertices
/// vertices: the lexicographically smallest (labels, adjacency-bits) encoding
/// over all vertex permutations. Two small graphs are isomorphic iff their
/// canonical codes are equal.
std::string CanonicalCode(const Graph& g);

/// Canonical edge-set bitmask of an *unlabeled* graph with <= 8 vertices.
/// Bit for pair (i, j), i < j, is at position PairBitIndex(i, j, n). The mask
/// is minimized over all permutations; isomorphic unlabeled graphs (ignoring
/// labels) share a mask. Used to identify graphlets.
uint32_t CanonicalEdgeMask(const Graph& g);

/// Bit position of pair (i, j), i < j, within an n-vertex edge mask.
int PairBitIndex(int i, int j, int n);

/// Builds the unlabeled n-vertex graph whose edges are given by `mask`.
Graph GraphFromEdgeMask(int n, uint32_t mask);

/// Result of an isomorphism test.
enum class IsoResult {
  kIsomorphic,         // definitely isomorphic (exact test)
  kNonIsomorphic,      // definitely not isomorphic
  kPossiblyIsomorphic  // WL test could not distinguish (large graphs only)
};

/// Exact for graphs up to kMaxExactCanonicalVertices vertices; falls back to
/// invariants + the 1-WL color-refinement test for larger graphs (which can
/// return kPossiblyIsomorphic but never a wrong definite answer).
IsoResult TestIsomorphism(const Graph& a, const Graph& b);

/// Convenience: TestIsomorphism == kIsomorphic. Requires both graphs small
/// enough for the exact test.
bool AreIsomorphic(const Graph& a, const Graph& b);

/// Stable fingerprint of the multiset of 1-WL colors after `iterations`
/// refinement rounds (starting from vertex labels). Equal for isomorphic
/// graphs; unequal implies non-isomorphic.
std::string WlFingerprint(const Graph& g, int iterations);

}  // namespace deepmap::graph

#endif  // DEEPMAP_GRAPH_ISOMORPHISM_H_
