#include "graph/centrality.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "graph/algorithms.h"

namespace deepmap::graph {

std::vector<double> EigenvectorCentrality(const Graph& g,
                                          const CentralityOptions& options) {
  const int n = g.NumVertices();
  if (n == 0) return {};
  if (g.NumEdges() == 0) {
    // Adjacency matrix is zero: every vertex is equally (un)central.
    return std::vector<double>(n, 1.0 / std::sqrt(static_cast<double>(n)));
  }

  // The iteration must be normalized PER CONNECTED COMPONENT. Under a single
  // global normalization every component whose spectral radius is below the
  // graph-wide maximum decays geometrically toward zero (e.g. a triangle,
  // radius 3 on A+I, starves a K_{1,3} star, radius 1+sqrt(3)), so the
  // surviving values — and any centrality ordering built on them — reflect
  // which component happened to be densest, not vertex importance. Each
  // component with edges instead converges to its own dominant eigenvector
  // at unit norm; isolated vertices stay 0 per the header contract.
  const std::vector<int> component = ConnectedComponents(g);
  int num_components = 0;
  for (int c : component) num_components = std::max(num_components, c + 1);
  std::vector<char> active(num_components, 0);
  std::vector<int> size(num_components, 0);
  for (Vertex v = 0; v < n; ++v) {
    ++size[component[v]];
    if (g.Degree(v) > 0) active[component[v]] = 1;
  }
  int num_active = 0;
  for (char a : active) num_active += a;

  std::vector<double> x(n, 0.0);
  std::vector<double> norm(num_components);
  for (Vertex v = 0; v < n; ++v) {
    if (active[component[v]]) {
      x[v] = 1.0 / std::sqrt(static_cast<double>(size[component[v]]));
    }
  }
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Iterate on A + I: same eigenvectors as A, but the top eigenvalue is
    // strictly dominant in magnitude, so the iteration also converges on
    // bipartite graphs (where A's spectrum is symmetric and plain power
    // iteration oscillates with period two).
    for (Vertex v = 0; v < n; ++v) {
      double sum = x[v];
      for (Vertex u : g.Neighbors(v)) sum += x[u];
      next[v] = sum;
    }
    std::fill(norm.begin(), norm.end(), 0.0);
    for (Vertex v = 0; v < n; ++v) {
      norm[component[v]] += next[v] * next[v];
    }
    bool renormalized = false;
    for (int c = 0; c < num_components; ++c) {
      if (!active[c]) continue;
      if (norm[c] > 0.0) {
        norm[c] = std::sqrt(norm[c]);
      } else {
        // Unreachable from the positive start above (A+I maps positive
        // vectors to positive vectors), but if a caller-visible zero ever
        // appears, restart that component from uniform instead of letting
        // the old global `break` freeze a half-converged vector.
        renormalized = true;
      }
    }
    double delta = 0.0;
    for (Vertex v = 0; v < n; ++v) {
      const int c = component[v];
      if (!active[c]) continue;
      next[v] = norm[c] > 0.0
                    ? next[v] / norm[c]
                    : 1.0 / std::sqrt(static_cast<double>(size[c]));
      delta = std::max(delta, std::fabs(next[v] - x[v]));
    }
    x.swap(next);
    if (!renormalized && delta < options.tolerance) break;
  }
  // Rescale so the full vector is L2-normalized (each active component
  // currently has unit norm). With one component this is the historical
  // behavior exactly.
  if (num_active > 0) {
    const double scale = 1.0 / std::sqrt(static_cast<double>(num_active));
    for (double& value : x) value *= scale;
  }
  // Power iteration on a nonnegative matrix from a positive start stays
  // nonnegative; clamp tiny negative rounding noise.
  for (double& value : x) value = std::max(value, 0.0);
  return x;
}

std::vector<double> DegreeCentrality(const Graph& g) {
  std::vector<double> c(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    c[v] = static_cast<double>(g.Degree(v));
  }
  return c;
}

std::vector<double> PageRankCentrality(const Graph& g,
                                       const CentralityOptions& options) {
  const int n = g.NumVertices();
  if (n == 0) return {};
  const double d = options.damping;
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    for (Vertex v = 0; v < n; ++v) {
      if (g.Degree(v) == 0) dangling += rank[v];
    }
    std::fill(next.begin(), next.end(),
              (1.0 - d) / n + d * dangling / n);
    for (Vertex v = 0; v < n; ++v) {
      if (g.Degree(v) == 0) continue;
      double share = d * rank[v] / g.Degree(v);
      for (Vertex u : g.Neighbors(v)) next[u] += share;
    }
    double delta = 0.0;
    for (int v = 0; v < n; ++v) delta += std::fabs(next[v] - rank[v]);
    rank.swap(next);
    if (delta < options.tolerance) break;
  }
  return rank;
}

std::vector<double> BetweennessCentrality(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<double> centrality(n, 0.0);
  // Brandes' algorithm: one BFS per source with dependency accumulation.
  std::vector<int> dist(n);
  std::vector<double> sigma(n);  // number of shortest paths
  std::vector<double> delta(n);  // dependency
  std::vector<std::vector<Vertex>> predecessors(n);
  std::vector<Vertex> order;  // vertices in non-decreasing distance
  order.reserve(n);
  for (Vertex s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    for (auto& p : predecessors) p.clear();
    order.clear();
    dist[s] = 0;
    sigma[s] = 1.0;
    std::vector<Vertex> queue{s};
    for (size_t head = 0; head < queue.size(); ++head) {
      Vertex u = queue[head];
      order.push_back(u);
      for (Vertex w : g.Neighbors(u)) {
        if (dist[w] < 0) {
          dist[w] = dist[u] + 1;
          queue.push_back(w);
        }
        if (dist[w] == dist[u] + 1) {
          sigma[w] += sigma[u];
          predecessors[w].push_back(u);
        }
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      Vertex w = *it;
      for (Vertex u : predecessors[w]) {
        delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w]);
      }
      if (w != s) centrality[w] += delta[w];
    }
  }
  // Each unordered pair was counted from both endpoints.
  for (double& c : centrality) c /= 2.0;
  return centrality;
}

std::vector<Vertex> SortByCentralityDescending(
    const std::vector<double>& centrality) {
  std::vector<Vertex> order(centrality.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    if (centrality[a] != centrality[b]) return centrality[a] > centrality[b];
    return a < b;
  });
  return order;
}

}  // namespace deepmap::graph
