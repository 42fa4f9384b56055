// Flat adjacency of a Graph whose neighbour lists follow a given vertex
// order. The receptive fields walk every neighbour list of a request graph
// in the order of the vertex sequence; one contiguous array of lists is
// cheaper to walk than a vector per vertex, and laying the lists out in that
// order lets each field read them pre-sorted instead of sorting per vertex.
// (WL refinement scatters colours into signature blocks of its own, and the
// eigenvector centrality builds a CSR laid out by component.)
#ifndef DEEPMAP_GRAPH_ORDERED_ADJACENCY_H_
#define DEEPMAP_GRAPH_ORDERED_ADJACENCY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace deepmap::graph {

/// Offsets + neighbours (CSR) adjacency in which every list follows `order`:
/// u comes before x in the list of any common neighbour exactly when u comes
/// before x in `order`.
class OrderedAdjacency {
 public:
  /// Builds in O(n + m) by visiting the vertices in `order` (a permutation
  /// of [0, g.NumVertices())) and appending each to its neighbours' lists.
  /// The identity order reproduces Graph's ascending-id lists.
  OrderedAdjacency(const Graph& g, std::span<const Vertex> order);

  std::span<const Vertex> Neighbors(Vertex v) const {
    return {neighbors_.data() + offsets_[static_cast<size_t>(v)],
            neighbors_.data() + offsets_[static_cast<size_t>(v) + 1]};
  }

 private:
  std::vector<int32_t> offsets_;
  std::vector<Vertex> neighbors_;
};

}  // namespace deepmap::graph

#endif  // DEEPMAP_GRAPH_ORDERED_ADJACENCY_H_
