#include "core/alignment.h"

#include <gtest/gtest.h>

#include "core/receptive_field.h"
#include "graph/graph.h"

namespace deepmap::core {
namespace {

using graph::Graph;
using graph::Vertex;

Graph StarGraph(int leaves) {
  Graph g(leaves + 1);
  for (int i = 1; i <= leaves; ++i) g.AddEdge(0, i);
  return g;
}

TEST(AlignmentTest, EigenvectorPutsHubFirst) {
  Graph g = StarGraph(4);
  auto centrality = ComputeCentrality(g, AlignmentMeasure::kEigenvector,
                                      nullptr);
  auto sequence = GenerateVertexSequence(g, centrality, 5);
  EXPECT_EQ(sequence[0], 0);
}

TEST(AlignmentTest, PaddingWithDummies) {
  Graph g = StarGraph(2);
  auto centrality = ComputeCentrality(g, AlignmentMeasure::kDegree, nullptr);
  auto sequence = GenerateVertexSequence(g, centrality, 6);
  ASSERT_EQ(sequence.size(), 6u);
  EXPECT_EQ(sequence[3], kDummyVertex);
  EXPECT_EQ(sequence[4], kDummyVertex);
  EXPECT_EQ(sequence[5], kDummyVertex);
}

TEST(AlignmentTest, RandomMeasureNeedsRng) {
  Graph g = StarGraph(3);
  Rng rng(5);
  auto centrality = ComputeCentrality(g, AlignmentMeasure::kRandom, &rng);
  EXPECT_EQ(centrality.size(), 4u);
}

TEST(AlignmentTest, MeasureNames) {
  EXPECT_EQ(AlignmentMeasureName(AlignmentMeasure::kEigenvector),
            "eigenvector");
  EXPECT_EQ(AlignmentMeasureName(AlignmentMeasure::kRandom), "random");
}

TEST(AlignmentTest, SequenceIsPermutationOfVertices) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  auto centrality =
      ComputeCentrality(g, AlignmentMeasure::kEigenvector, nullptr);
  auto sequence = GenerateVertexSequence(g, centrality, 6);
  std::vector<bool> seen(6, false);
  for (Vertex v : sequence) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 6);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(AlignmentTest, DisconnectedGraphOrderingIsDeterministic) {
  // Triangle {0,1,2} + star {3: center; 4,5,6: leaves}. With per-component
  // eigenvector normalization (Definition 2 alignment on disconnected
  // inputs), the star center leads, the symmetric triangle vertices tie and
  // break by ascending id, then the star leaves. Pre-fix the star component
  // decayed to ~0 and its internal ordering was rounding noise.
  Graph g = Graph::FromEdges(
      7, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {3, 5}, {3, 6}});
  auto centrality =
      ComputeCentrality(g, AlignmentMeasure::kEigenvector, nullptr);
  auto sequence = GenerateVertexSequence(g, centrality, 7);
  const std::vector<Vertex> expected{3, 0, 1, 2, 4, 5, 6};
  EXPECT_EQ(sequence, expected);
}

TEST(ReceptiveFieldTest, TopNeighborsByCentrality) {
  // Star: receptive field of the hub with r=3 takes hub + 2 leaves (highest
  // centrality tie-break = lowest id).
  Graph g = StarGraph(4);
  auto centrality =
      ComputeCentrality(g, AlignmentMeasure::kEigenvector, nullptr);
  auto field = BuildReceptiveField(g, 0, 3, centrality);
  ASSERT_EQ(field.size(), 3u);
  EXPECT_EQ(field[0], 0);  // hub has the highest centrality
  EXPECT_EQ(field[1], 1);
  EXPECT_EQ(field[2], 2);
}

TEST(ReceptiveFieldTest, HopExpansionWhenNeighborhoodSmall) {
  // Path 0-1-2-3-4: field of vertex 0 with r=3 must reach the 2-hop vertex.
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto centrality =
      ComputeCentrality(g, AlignmentMeasure::kEigenvector, nullptr);
  auto field = BuildReceptiveField(g, 0, 3, centrality);
  std::vector<Vertex> sorted(field);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<Vertex>{0, 1, 2}));
}

TEST(ReceptiveFieldTest, PadsWhenGraphTooSmall) {
  Graph g = Graph::FromEdges(2, {{0, 1}});
  auto centrality = ComputeCentrality(g, AlignmentMeasure::kDegree, nullptr);
  auto field = BuildReceptiveField(g, 0, 5, centrality);
  ASSERT_EQ(field.size(), 5u);
  EXPECT_EQ(field[2], kDummyVertex);
  EXPECT_EQ(field[4], kDummyVertex);
}

TEST(ReceptiveFieldTest, DisconnectedVertexOnlySelf) {
  Graph g(4);
  g.AddEdge(0, 1);
  auto centrality = ComputeCentrality(g, AlignmentMeasure::kDegree, nullptr);
  auto field = BuildReceptiveField(g, 3, 3, centrality);
  EXPECT_EQ(field[0], 3);
  EXPECT_EQ(field[1], kDummyVertex);
  EXPECT_EQ(field[2], kDummyVertex);
}

TEST(ReceptiveFieldTest, SortedByCentralityDescending) {
  Graph g = Graph::FromEdges(5, {{2, 0}, {2, 1}, {2, 3}, {3, 4}, {0, 1}});
  auto centrality =
      ComputeCentrality(g, AlignmentMeasure::kEigenvector, nullptr);
  auto field = BuildReceptiveField(g, 4, 4, centrality);
  for (size_t i = 0; i + 1 < field.size(); ++i) {
    if (field[i] == kDummyVertex || field[i + 1] == kDummyVertex) continue;
    EXPECT_GE(centrality[field[i]], centrality[field[i + 1]]);
  }
}

TEST(ReceptiveFieldTest, SizeOneIsJustTheVertex) {
  Graph g = StarGraph(3);
  auto centrality = ComputeCentrality(g, AlignmentMeasure::kDegree, nullptr);
  auto field = BuildReceptiveField(g, 2, 1, centrality);
  EXPECT_EQ(field, (std::vector<Vertex>{2}));
}

TEST(ReceptiveFieldTest, AllFieldsCoverEveryVertexOnce) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  auto centrality =
      ComputeCentrality(g, AlignmentMeasure::kEigenvector, nullptr);
  const std::vector<Vertex> sequence = GenerateVertexSequence(g, centrality, 8);
  const std::vector<Vertex> table = BuildFieldTable(g, sequence, 3, centrality);
  ASSERT_EQ(table.size(), 8u * 3u);
  for (int slot = 0; slot < 6; ++slot) {
    const auto row = table.begin() + slot * 3;
    // Each field contains its own vertex, and equals the one-vertex builder.
    EXPECT_NE(std::find(row, row + 3, sequence[slot]), row + 3);
    EXPECT_EQ(std::vector<Vertex>(row, row + 3),
              BuildReceptiveField(g, sequence[slot], 3, centrality));
  }
  // Padding slots are all dummies.
  for (size_t i = 6 * 3; i < table.size(); ++i) {
    EXPECT_EQ(table[i], kDummyVertex);
  }
}

}  // namespace
}  // namespace deepmap::core
