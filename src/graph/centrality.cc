#include "graph/centrality.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "graph/algorithms.h"

namespace deepmap::graph {
namespace {

// Iteration cap and convergence tolerance of the power iterations.
constexpr int kMaxIterations = 200;
constexpr double kTolerance = 1e-10;
// PageRank damping factor.
constexpr double kDamping = 0.85;

}  // namespace

std::vector<double> EigenvectorCentrality(const Graph& g) {
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

  // Lay the active vertices out component by component. Within a component
  // positions ascend with vertex id, so each component's norm below
  // accumulates in ascending vertex order and every neighbour list stays
  // ascending-id.
  struct Range {
    int32_t begin, end;
    double uniform;  // the component's start and restart value
  };
  std::vector<Range> ranges;
  std::vector<int32_t> start(num_components, 0);  // next free position
  int32_t active_vertices = 0;
  for (int c = 0; c < num_components; ++c) {
    if (!active[c]) continue;
    start[c] = active_vertices;
    active_vertices += size[c];
    ranges.push_back({start[c], active_vertices,
                      1.0 / std::sqrt(static_cast<double>(size[c]))});
  }
  std::vector<int32_t> position(static_cast<size_t>(n), -1);
  std::vector<Vertex> vertex_at(static_cast<size_t>(active_vertices));
  for (Vertex v = 0; v < n; ++v) {
    const int c = component[v];
    if (!active[c]) continue;
    position[v] = start[c]++;
    vertex_at[position[v]] = v;
  }

  // CSR over positions. Graph keeps every neighbour list ascending by id,
  // and a component's positions ascend with id, so the lists stay ascending.
  std::vector<int32_t> offsets;
  offsets.reserve(static_cast<size_t>(active_vertices) + 1);
  offsets.push_back(0);
  std::vector<int32_t> neighbors;
  neighbors.reserve(2 * static_cast<size_t>(g.NumEdges()));
  for (Vertex v : vertex_at) {
    for (Vertex u : g.Neighbors(v)) neighbors.push_back(position[u]);
    offsets.push_back(static_cast<int32_t>(neighbors.size()));
  }

  std::vector<double> x(static_cast<size_t>(active_vertices));
  std::vector<double> next(static_cast<size_t>(active_vertices));
  for (const Range& range : ranges) {
    std::fill(x.begin() + range.begin, x.begin() + range.end, range.uniform);
  }
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    // Iterate on A + I: same eigenvectors as A, but the top eigenvalue is
    // strictly dominant in magnitude, so the iteration also converges on
    // bipartite graphs (where A's spectrum is symmetric and plain power
    // iteration oscillates with period two). Each vertex sums itself first,
    // then its neighbours by ascending id; its component's squared norm
    // accumulates in the same pass, in ascending vertex order.
    bool renormalized = false;
    bool moved = false;
    for (const Range& range : ranges) {
      double norm = 0.0;
      for (int32_t p = range.begin; p < range.end; ++p) {
        double sum = x[p];
        for (int32_t k = offsets[p]; k < offsets[p + 1]; ++k) {
          sum += x[neighbors[k]];
        }
        next[p] = sum;
        norm += sum * sum;
      }
      if (norm > 0.0) {
        norm = std::sqrt(norm);
        for (int32_t p = range.begin; p < range.end; ++p) {
          next[p] = next[p] / norm;
          moved |= std::fabs(next[p] - x[p]) >= kTolerance;
        }
      } else {
        // Unreachable from the positive start above (A+I maps positive
        // vectors to positive vectors), but if a caller-visible zero ever
        // appears, restart that component from uniform instead of freezing
        // a half-converged vector.
        renormalized = true;
        std::fill(next.begin() + range.begin, next.begin() + range.end,
                  range.uniform);
      }
    }
    x.swap(next);
    // !moved is "max |next - x| < kTolerance" over a max that starts at 0.
    if (!renormalized && !moved) break;
  }
  // Rescale so the full vector is L2-normalized (each active component
  // currently has unit norm). With one component this is the historical
  // behavior exactly. Power iteration on a nonnegative matrix from a
  // positive start stays nonnegative; clamp tiny negative rounding noise.
  const double scale = 1.0 / std::sqrt(static_cast<double>(ranges.size()));
  std::vector<double> result(static_cast<size_t>(n), 0.0);
  for (Vertex v = 0; v < n; ++v) {
    if (position[v] >= 0) result[v] = std::max(x[position[v]] * scale, 0.0);
  }
  return result;
}

std::vector<double> DegreeCentrality(const Graph& g) {
  std::vector<double> c(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    c[v] = static_cast<double>(g.Degree(v));
  }
  return c;
}

std::vector<double> PageRankCentrality(const Graph& g) {
  const int n = g.NumVertices();
  if (n == 0) return {};
  const double d = kDamping;
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < kMaxIterations; ++iter) {
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
    if (delta < kTolerance) break;
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
