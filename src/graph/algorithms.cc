#include "graph/algorithms.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace deepmap::graph {

std::vector<int> BfsDistances(const Graph& g, Vertex source) {
  DEEPMAP_CHECK_GE(source, 0);
  DEEPMAP_CHECK_LT(source, g.NumVertices());
  std::vector<int> dist(g.NumVertices(), kUnreachable);
  std::deque<Vertex> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    Vertex u = queue.front();
    queue.pop_front();
    for (Vertex v : g.Neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<Vertex> BfsOrder(const Graph& g, Vertex source) {
  DEEPMAP_CHECK_GE(source, 0);
  DEEPMAP_CHECK_LT(source, g.NumVertices());
  std::vector<bool> seen(g.NumVertices(), false);
  std::vector<Vertex> order;
  std::deque<Vertex> queue;
  seen[source] = true;
  queue.push_back(source);
  while (!queue.empty()) {
    Vertex u = queue.front();
    queue.pop_front();
    order.push_back(u);
    for (Vertex v : g.Neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  return order;
}

std::vector<std::vector<int>> AllPairsShortestPaths(const Graph& g) {
  std::vector<std::vector<int>> dist(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) dist[v] = BfsDistances(g, v);
  return dist;
}

std::vector<std::vector<int>> FloydWarshallShortestPaths(const Graph& g) {
  const int n = g.NumVertices();
  // Use a large sentinel that cannot overflow when two are added.
  const int kInf = 1 << 29;
  std::vector<std::vector<int>> dist(n, std::vector<int>(n, kInf));
  for (Vertex v = 0; v < n; ++v) {
    dist[v][v] = 0;
    for (Vertex u : g.Neighbors(v)) dist[v][u] = 1;
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      if (dist[i][k] == kInf) continue;
      for (int j = 0; j < n; ++j) {
        int through = dist[i][k] + dist[k][j];
        if (through < dist[i][j]) dist[i][j] = through;
      }
    }
  }
  for (auto& row : dist) {
    for (int& d : row) {
      if (d >= kInf) d = kUnreachable;
    }
  }
  return dist;
}

std::vector<int> ConnectedComponents(const Graph& g) {
  std::vector<int> component(g.NumVertices(), -1);
  std::vector<Vertex> queue;
  queue.reserve(static_cast<size_t>(g.NumVertices()));
  int next_id = 0;
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    if (component[s] != -1) continue;
    int id = next_id++;
    // Flat BFS queue: a vertex is enqueued once, so n slots always suffice.
    queue.assign(1, s);
    component[s] = id;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (Vertex v : g.Neighbors(queue[head])) {
        if (component[v] == -1) {
          component[v] = id;
          queue.push_back(v);
        }
      }
    }
  }
  return component;
}

int NumConnectedComponents(const Graph& g) {
  const auto comp = ConnectedComponents(g);
  int max_id = -1;
  for (int c : comp) max_id = std::max(max_id, c);
  return max_id + 1;
}

int Diameter(const Graph& g) {
  int diameter = 0;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (int d : BfsDistances(g, v)) diameter = std::max(diameter, d);
  }
  return diameter;
}

std::vector<int> DegreeSequence(const Graph& g) {
  std::vector<int> degrees(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) degrees[v] = g.Degree(v);
  std::sort(degrees.rbegin(), degrees.rend());
  return degrees;
}

bool IsCompleteGraph(const Graph& g) {
  int64_t n = g.NumVertices();
  return g.NumEdges() == n * (n - 1) / 2;
}

bool IsForest(const Graph& g) {
  return g.NumEdges() == g.NumVertices() - NumConnectedComponents(g);
}

int64_t CountTriangles(const Graph& g) {
  int64_t count = 0;
  for (Vertex u = 0; u < g.NumVertices(); ++u) {
    const auto& nu = g.Neighbors(u);
    for (Vertex v : nu) {
      if (v <= u) continue;
      // Triangles u < v < w with w adjacent to both.
      for (Vertex w : g.Neighbors(v)) {
        if (w > v && std::binary_search(nu.begin(), nu.end(), w)) ++count;
      }
    }
  }
  return count;
}

}  // namespace deepmap::graph
