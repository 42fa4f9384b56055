#include "graph/ordered_adjacency.h"

#include "common/check.h"

namespace deepmap::graph {

OrderedAdjacency::OrderedAdjacency(const Graph& g,
                                   std::span<const Vertex> order) {
  const int n = g.NumVertices();
  DEEPMAP_CHECK_EQ(order.size(), static_cast<size_t>(n));
  offsets_.resize(static_cast<size_t>(n) + 1);
  offsets_[0] = 0;
  for (Vertex v = 0; v < n; ++v) {
    offsets_[static_cast<size_t>(v) + 1] =
        offsets_[static_cast<size_t>(v)] + g.Degree(v);
  }
  neighbors_.resize(static_cast<size_t>(offsets_.back()));
  // cursor[x] is the next free slot of x's list; u is appended to the lists
  // of its neighbours when its turn in `order` comes.
  std::vector<int32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (Vertex u : order) {
    for (Vertex x : g.Neighbors(u)) {
      neighbors_[static_cast<size_t>(cursor[static_cast<size_t>(x)]++)] = u;
    }
  }
}

}  // namespace deepmap::graph
