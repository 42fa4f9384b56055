// Receptive-field construction (the paper's Section 4.1, step 2).
//
// The receptive field of a vertex v is v plus up to r-1 neighbors gathered
// by BFS hop expansion: if the one-hop neighborhood has >= r-1 vertices,
// take the r-1 with the highest centrality; otherwise take all of it and
// continue with two-hop neighbors, and so on. The resulting field is sorted
// by descending centrality (ties by ascending id) and padded with
// kDummyVertex to exactly r slots.
//
// BuildFieldTable builds the fields of a whole aligned sequence at once, in
// O(n + m) set-up plus the vertices each field reads: one flat adjacency
// whose lists follow the sequence (graph::OrderedAdjacency), so every list is
// sorted by rank and a hop from one vertex that overflows the field keeps a
// prefix of that vertex's list; and one visited array for all slots, reset by
// bumping an epoch. BuildReceptiveField runs the same hop expansion over the
// graph's own (ascending-id) lists and selects the top of an overflowing hop
// by centrality.
#ifndef DEEPMAP_CORE_RECEPTIVE_FIELD_H_
#define DEEPMAP_CORE_RECEPTIVE_FIELD_H_

#include <vector>

#include "core/alignment.h"
#include "graph/graph.h"

namespace deepmap::core {

/// Builds the size-r receptive field of `v`. `centrality` must have one
/// score per vertex of `g`. The returned vector has exactly r entries; the
/// tail is kDummyVertex when fewer than r vertices are reachable.
std::vector<graph::Vertex> BuildReceptiveField(
    const graph::Graph& g, graph::Vertex v, int r,
    const std::vector<double>& centrality);

/// The [w, r] receptive-field table of an aligned sequence, w =
/// sequence.size(): row `slot` is BuildReceptiveField(g, sequence[slot], r,
/// centrality), and a dummy slot's row is r kDummyVertex entries.
/// `sequence` must be GenerateVertexSequence(g, centrality, w) (checked).
std::vector<graph::Vertex> BuildFieldTable(
    const graph::Graph& g, const std::vector<graph::Vertex>& sequence, int r,
    const std::vector<double>& centrality);

}  // namespace deepmap::core

#endif  // DEEPMAP_CORE_RECEPTIVE_FIELD_H_
