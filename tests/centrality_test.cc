#include "graph/centrality.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/graph.h"

namespace deepmap::graph {
namespace {

Graph StarGraph(int leaves) {
  Graph g(leaves + 1);
  for (int i = 1; i <= leaves; ++i) g.AddEdge(0, i);
  return g;
}

TEST(EigenvectorCentralityTest, StarCenterDominates) {
  Graph g = StarGraph(5);
  auto c = EigenvectorCentrality(g);
  for (int leaf = 1; leaf <= 5; ++leaf) EXPECT_GT(c[0], c[leaf]);
  // Leaves are symmetric.
  for (int leaf = 2; leaf <= 5; ++leaf) EXPECT_NEAR(c[1], c[leaf], 1e-9);
}

TEST(EigenvectorCentralityTest, L2Normalized) {
  Graph g = StarGraph(4);
  auto c = EigenvectorCentrality(g);
  double norm = 0;
  for (double value : c) norm += value * value;
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(EigenvectorCentralityTest, CycleIsUniform) {
  Graph g(6);
  for (int i = 0; i < 6; ++i) g.AddEdge(i, (i + 1) % 6);
  auto c = EigenvectorCentrality(g);
  for (int v = 1; v < 6; ++v) EXPECT_NEAR(c[v], c[0], 1e-6);
  EXPECT_NEAR(c[0], 1.0 / std::sqrt(6.0), 1e-6);
}

TEST(EigenvectorCentralityTest, EdgelessGraphUniform) {
  Graph g(4);
  auto c = EigenvectorCentrality(g);
  for (double value : c) EXPECT_NEAR(value, 0.5, 1e-12);
}

TEST(EigenvectorCentralityTest, EmptyGraph) {
  EXPECT_TRUE(EigenvectorCentrality(Graph()).empty());
}

TEST(EigenvectorCentralityTest, MatchesKnownEigenvector) {
  // Path 0-1-2: dominant eigenvector of adjacency is (1, sqrt(2), 1)/2.
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  auto c = EigenvectorCentrality(g);
  EXPECT_NEAR(c[0], 0.5, 1e-6);
  EXPECT_NEAR(c[1], std::sqrt(2.0) / 2.0, 1e-6);
  EXPECT_NEAR(c[2], 0.5, 1e-6);
}

// Triangle {0,1,2} plus a K_{1,3} star {3: center; 4,5,6: leaves}. The
// triangle's spectral radius (3 on A+I) beats the star's (1 + sqrt(3)), so a
// globally normalized power iteration starves the star toward zero.
Graph TrianglePlusStar() {
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(3, 4);
  g.AddEdge(3, 5);
  g.AddEdge(3, 6);
  return g;
}

TEST(EigenvectorCentralityTest, DisconnectedStarCenterIsGlobalMax) {
  // Regression: pre-fix, the star component decayed to ~0 under the global
  // normalization, so the star center — the most locally central vertex in
  // the graph — ranked below every triangle vertex.
  auto c = EigenvectorCentrality(TrianglePlusStar());
  // Per-component: star center sqrt(3)/sqrt(6), triangle 1/sqrt(3), star
  // leaf 1/sqrt(6); global rescale by 1/sqrt(2 components).
  const double scale = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(c[3], std::sqrt(3.0 / 6.0) * scale, 1e-6);
  for (int v = 0; v < 3; ++v) EXPECT_NEAR(c[v], scale / std::sqrt(3.0), 1e-6);
  for (int leaf = 4; leaf <= 6; ++leaf) {
    EXPECT_NEAR(c[leaf], scale / std::sqrt(6.0), 1e-6);
  }
  // The star center must outrank everything, including the denser triangle.
  for (int v = 0; v < 7; ++v) {
    if (v != 3) {
      EXPECT_GT(c[3], c[v]) << "vertex " << v;
    }
  }
}

TEST(EigenvectorCentralityTest, ComponentValuesMatchIsolatedComputation) {
  // Each component's values (up to the equal-mass rescale) must equal what
  // the same component yields when computed as a standalone graph.
  auto joint = EigenvectorCentrality(TrianglePlusStar());
  Graph star(4);
  star.AddEdge(0, 1);
  star.AddEdge(0, 2);
  star.AddEdge(0, 3);
  auto alone = EigenvectorCentrality(star);
  const double scale = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(joint[3], alone[0] * scale, 1e-8);
  for (int leaf = 0; leaf < 3; ++leaf) {
    EXPECT_NEAR(joint[4 + leaf], alone[1 + leaf] * scale, 1e-8);
  }
}

TEST(EigenvectorCentralityTest, DisconnectedGraphStaysL2Normalized) {
  auto c = EigenvectorCentrality(TrianglePlusStar());
  double norm = 0.0;
  for (double value : c) norm += value * value;
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(EigenvectorCentralityTest, IsolatedVertexIsZero) {
  Graph g(3);
  g.AddEdge(0, 1);  // vertex 2 isolated
  auto c = EigenvectorCentrality(g);
  EXPECT_NEAR(c[0], 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(c[1], 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_EQ(c[2], 0.0);
}

TEST(DegreeCentralityTest, EqualsDegrees) {
  Graph g = StarGraph(3);
  auto c = DegreeCentrality(g);
  EXPECT_DOUBLE_EQ(c[0], 3.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
}

TEST(PageRankTest, SumsToOne) {
  Graph g = StarGraph(4);
  auto pr = PageRankCentrality(g);
  double sum = 0;
  for (double value : pr) sum += value;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  for (int leaf = 1; leaf <= 4; ++leaf) EXPECT_GT(pr[0], pr[leaf]);
}

TEST(PageRankTest, HandlesIsolatedVertices) {
  Graph g(3);
  g.AddEdge(0, 1);
  auto pr = PageRankCentrality(g);
  double sum = 0;
  for (double value : pr) sum += value;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(pr[2], 0.0);
}

TEST(SortByCentralityTest, DescendingWithStableTies) {
  std::vector<double> c{0.3, 0.9, 0.3, 0.5};
  auto order = SortByCentralityDescending(c);
  std::vector<Vertex> expected{1, 3, 0, 2};
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace deepmap::graph
