// Vertex centrality measures. Eigenvector centrality (power iteration) is
// DEEPMAP's vertex-alignment measure; degree and PageRank centrality are
// provided for the alignment ablation.
#ifndef DEEPMAP_GRAPH_CENTRALITY_H_
#define DEEPMAP_GRAPH_CENTRALITY_H_

#include <vector>

#include "graph/graph.h"

namespace deepmap::graph {

/// Options for iterative centrality computations.
struct CentralityOptions {
  int max_iterations = 200;
  double tolerance = 1e-10;
  /// PageRank damping factor.
  double damping = 0.85;
};

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
std::vector<double> EigenvectorCentrality(
    const Graph& g, const CentralityOptions& options = {});

/// Degree of each vertex as a double (ablation baseline).
std::vector<double> DegreeCentrality(const Graph& g);

/// PageRank with uniform teleport, L1-normalized (ablation baseline).
std::vector<double> PageRankCentrality(const Graph& g,
                                       const CentralityOptions& options = {});

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
