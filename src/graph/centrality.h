// Vertex centrality measures. Eigenvector centrality (power iteration) is
// DEEPMAP's vertex-alignment measure; degree and PageRank centrality are
// provided for the alignment ablation.
#ifndef DEEPMAP_GRAPH_CENTRALITY_H_
#define DEEPMAP_GRAPH_CENTRALITY_H_

#include <vector>

#include "graph/graph.h"

namespace deepmap::graph {

/// Eigenvector centrality via power iteration on the adjacency matrix,
/// L2-normalized, all entries >= 0. Isolated vertices get value 0 unless the
/// whole graph has no edges, in which case the vector is uniform.
///
/// On disconnected graphs the iteration is normalized per connected
/// component: each component with edges converges to its own dominant
/// eigenvector (equal L2 mass per component after the final global rescale),
/// so no component's values decay to zero just because another component has
/// a larger spectral radius. Within-component orderings are therefore exact,
/// and cross-component comparisons are on an equal-mass footing.
///
/// Runs over one CSR of the vertices in components with edges, built once
/// per call and laid out component by component, each component's
/// vertices in ascending id. Each round sums, per vertex, itself first and
/// then its neighbours by ascending id, accumulating its component's squared
/// norm in the same pass and vertex order, then divides the component by
/// that norm and tests convergence (every |next - x| < tolerance) in one
/// flat pass. That order, the tolerance and the iteration cap fix every
/// output bit (centrality.cc is built with FP contraction off); a looser
/// stop or another summation order would reorder near-ties in the alignment
/// and change logits.
std::vector<double> EigenvectorCentrality(const Graph& g);

/// Degree of each vertex as a double (ablation baseline).
std::vector<double> DegreeCentrality(const Graph& g);

/// PageRank with uniform teleport and damping 0.85, L1-normalized (ablation
/// baseline).
std::vector<double> PageRankCentrality(const Graph& g);

/// Exact betweenness centrality via Brandes' algorithm, O(|V||E|).
/// PATCHY-SAN's canonical labeling is often approximated with betweenness;
/// provided for the alignment ablation.
std::vector<double> BetweennessCentrality(const Graph& g);

/// Vertex ids sorted by descending centrality. Ties are broken by ascending
/// vertex id, making the order deterministic.
std::vector<Vertex> SortByCentralityDescending(
    const std::vector<double>& centrality);

}  // namespace deepmap::graph

#endif  // DEEPMAP_GRAPH_CENTRALITY_H_
