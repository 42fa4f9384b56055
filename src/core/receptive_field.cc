#include "core/receptive_field.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/check.h"
#include "graph/ordered_adjacency.h"

namespace deepmap::core {
namespace {

using graph::Vertex;

/// Descending centrality, ties by ascending id: the order of a field.
struct ByCentralityDesc {
  const std::vector<double>& centrality;
  bool operator()(Vertex a, Vertex b) const {
    if (centrality[a] != centrality[b]) return centrality[a] > centrality[b];
    return a < b;
  }
};

/// BFS hop expansion shared by both builders. `field` holds the root on
/// entry; each hop adds the vertices `take` reports as newly reached — all of
/// them while they fit, else the first `room` of them under `before` (the
/// paper's top r-1 rule applied within the hop that overflows the field).
/// The field is returned sorted by `before`, unpadded. With `ranked_lists`
/// every neighbor list already follows `before`, so a hop from a single
/// vertex keeps a prefix of its list and stops reading there.
template <typename Adjacency, typename Take, typename Before>
void ExpandField(const Adjacency& adjacency, int r, bool ranked_lists,
                 Take take, Before before, std::vector<Vertex>& field,
                 std::vector<Vertex>& hop, std::vector<Vertex>& next_hop) {
  hop.assign(1, field.front());
  while (static_cast<int>(field.size()) < r && !hop.empty()) {
    const auto room = static_cast<size_t>(r) - field.size();
    next_hop.clear();
    if (ranked_lists && hop.size() == 1) {
      for (Vertex w : adjacency.Neighbors(hop.front())) {
        if (take(w)) {
          next_hop.push_back(w);
          if (next_hop.size() == room) break;
        }
      }
    } else {
      for (Vertex u : hop) {
        for (Vertex w : adjacency.Neighbors(u)) {
          if (take(w)) next_hop.push_back(w);
        }
      }
      if (next_hop.size() > room) {
        // The comparator is a strict total order, so the kept set is the
        // same as a full sort's; the field is sorted below anyway.
        std::partial_sort(next_hop.begin(),
                          next_hop.begin() + static_cast<ptrdiff_t>(room),
                          next_hop.end(), before);
        next_hop.resize(room);
      }
    }
    field.insert(field.end(), next_hop.begin(), next_hop.end());
    hop.swap(next_hop);
  }
  std::sort(field.begin(), field.end(), before);
}

}  // namespace

std::vector<graph::Vertex> BuildReceptiveField(
    const graph::Graph& g, graph::Vertex v, int r,
    const std::vector<double>& centrality) {
  DEEPMAP_CHECK_GT(r, 0);
  DEEPMAP_CHECK_GE(v, 0);
  DEEPMAP_CHECK_LT(v, g.NumVertices());
  DEEPMAP_CHECK_EQ(centrality.size(), static_cast<size_t>(g.NumVertices()));

  std::vector<bool> taken(g.NumVertices(), false);
  taken[v] = true;
  auto take = [&](Vertex w) {
    if (taken[w]) return false;
    taken[w] = true;
    return true;
  };
  std::vector<Vertex> field;
  field.reserve(static_cast<size_t>(r));
  field.push_back(v);
  std::vector<Vertex> hop;
  std::vector<Vertex> next_hop;
  next_hop.reserve(static_cast<size_t>(g.Degree(v)));  // the first hop
  ExpandField(g, r, /*ranked_lists=*/false, take,
              ByCentralityDesc{centrality}, field, hop, next_hop);
  field.resize(static_cast<size_t>(r), kDummyVertex);
  return field;
}

std::vector<graph::Vertex> BuildFieldTable(
    const graph::Graph& g, const std::vector<graph::Vertex>& sequence, int r,
    const std::vector<double>& centrality) {
  DEEPMAP_CHECK_GT(r, 0);
  const int n = g.NumVertices();
  DEEPMAP_CHECK_EQ(centrality.size(), static_cast<size_t>(n));
  DEEPMAP_CHECK_GE(sequence.size(), static_cast<size_t>(n));

  // rank[v] = position of v in the sequence. The sequence must list every
  // vertex once in field order and then only padding; that is what makes
  // ascending rank the field order.
  const ByCentralityDesc by_centrality{centrality};
  std::vector<int32_t> rank(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const Vertex v = sequence[static_cast<size_t>(i)];
    DEEPMAP_CHECK(v >= 0 && v < n && rank[v] == -1);
    DEEPMAP_CHECK(i == 0 || by_centrality(sequence[i - 1], v));
    rank[v] = i;
  }
  for (size_t i = static_cast<size_t>(n); i < sequence.size(); ++i) {
    DEEPMAP_CHECK_EQ(sequence[i], kDummyVertex);
  }
  auto by_rank = [&](Vertex a, Vertex b) { return rank[a] < rank[b]; };

  const graph::OrderedAdjacency adjacency(
      g, std::span<const Vertex>(sequence.data(), static_cast<size_t>(n)));
  // visited[u] == epoch marks u as taken by the current slot's field.
  std::vector<uint32_t> visited(static_cast<size_t>(n), 0);
  uint32_t epoch = 0;
  auto take = [&](Vertex w) {
    if (visited[w] == epoch) return false;
    visited[w] = epoch;
    return true;
  };

  std::vector<Vertex> table(sequence.size() * static_cast<size_t>(r),
                            kDummyVertex);
  std::vector<Vertex> field;
  std::vector<Vertex> hop;
  std::vector<Vertex> next_hop;
  field.reserve(static_cast<size_t>(r));
  for (int slot = 0; slot < n; ++slot) {  // slots >= n are dummies
    const Vertex v = sequence[static_cast<size_t>(slot)];
    visited[v] = ++epoch;
    field.assign(1, v);
    ExpandField(adjacency, r, /*ranked_lists=*/true, take, by_rank, field,
                hop, next_hop);
    std::copy(field.begin(), field.end(),
              table.begin() + static_cast<ptrdiff_t>(slot) * r);
  }
  return table;
}

}  // namespace deepmap::core
