// Flat adjacency of a Graph whose neighbour lists follow a given vertex
// order. The serve-path preprocessing stages (WL refinement, eigenvector
// centrality, receptive fields) each walk every neighbour list many times;
// one contiguous array of lists is cheaper to walk than a vector per vertex,
// and choosing the order of the lists lets a stage read them pre-sorted by
// the key it needs instead of sorting per vertex.
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
