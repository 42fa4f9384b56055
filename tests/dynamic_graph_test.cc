// DynamicGraph: the per-edge digest update must equal a full DigestOf
// recomputation after every delta (fuzzed, rolled-back batches included),
// deltas must be strict and ApplyAll atomic. GraphDigest: equal graphs share
// a digest regardless of construction order; a different edge, label or
// vertex numbering gives a different one — including for isomorphic and
// WL-equivalent graphs, which the DEEPMAP input does not treat as equal.
#include "graph/dynamic_graph.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/digest.h"
#include "graph/graph.h"

namespace deepmap::graph {
namespace {

Graph RandomGraph(Rng& rng, int n, double edge_probability) {
  Graph g;
  for (int v = 0; v < n; ++v) {
    g.AddVertex(static_cast<Label>(rng.Index(4)));
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(edge_probability)) g.AddEdge(u, v);
    }
  }
  return g;
}

/// Asserts the maintained digest equals a from-scratch DigestOf.
void ExpectMatchesFullRecompute(const DynamicGraph& dyn) {
  EXPECT_EQ(dyn.digest().ToHex(), DigestOf(dyn.graph()).ToHex());
}

/// Toggle of a random vertex pair of `shadow` (insert when absent, remove
/// when present), applied to `shadow` too.
EdgeUpdate RandomToggle(Rng& rng, Graph& shadow) {
  const int n = shadow.NumVertices();
  Vertex u = 0, v = 0;
  while (u == v) {
    u = static_cast<Vertex>(rng.Index(n));
    v = static_cast<Vertex>(rng.Index(n));
  }
  if (shadow.HasEdge(u, v)) {
    shadow.RemoveEdge(u, v);
    return EdgeUpdate::Remove(u, v);
  }
  shadow.AddEdge(u, v);
  return EdgeUpdate::Insert(u, v);
}

class DynamicWlFuzzTest : public ::testing::TestWithParam<int> {};

// Single toggles and multi-update batches, a third of the batches ending in
// an invalid update so the whole batch rolls back: after every step the
// maintained digest must equal a full recomputation.
TEST_P(DynamicWlFuzzTest, IncrementalRepairMatchesFullRecompute) {
  Rng rng(GetParam());
  const int n = 8 + static_cast<int>(rng.Index(25));
  DynamicGraph dyn(RandomGraph(rng, n, 0.15));
  ExpectMatchesFullRecompute(dyn);

  for (int step = 0; step < 60; ++step) {
    Graph shadow = dyn.graph();
    std::vector<EdgeUpdate> batch;
    const int size = 1 + static_cast<int>(rng.Index(4));
    for (int i = 0; i < size; ++i) batch.push_back(RandomToggle(rng, shadow));
    const bool poisoned = rng.Index(3) == 0;
    if (poisoned) batch.push_back(EdgeUpdate::Insert(0, 0));  // self loop

    const std::string before = dyn.digest().ToHex();
    const Status s = dyn.ApplyAll(batch);
    if (poisoned) {
      ASSERT_EQ(s.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(dyn.digest().ToHex(), before);
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_TRUE(dyn.graph() == shadow);
    }
    ExpectMatchesFullRecompute(dyn);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicWlFuzzTest, ::testing::Range(400, 410));

TEST(DynamicGraphTest, DigestMatchesFullRecomputeFromEdgelessStart) {
  Rng rng(1);
  DynamicGraph dyn(RandomGraph(rng, 10, 0.0));
  ExpectMatchesFullRecompute(dyn);
  for (Vertex v = 1; v < 10; ++v) {
    ASSERT_TRUE(dyn.Apply(EdgeUpdate::Insert(v - 1, v)).ok());
    ExpectMatchesFullRecompute(dyn);
  }
  for (Vertex v = 1; v < 10; v += 2) {
    ASSERT_TRUE(dyn.Apply(EdgeUpdate::Remove(v, v - 1)).ok());
    ExpectMatchesFullRecompute(dyn);
  }
}

TEST(DynamicGraphTest, InsertThenRemoveRestoresFingerprint) {
  Rng rng(7);
  DynamicGraph dyn(RandomGraph(rng, 16, 0.2));
  const std::string before = dyn.digest().ToHex();
  Vertex u = 0, v = 0;
  for (Vertex a = 0; a < 16 && u == v; ++a) {
    for (Vertex b = a + 1; b < 16; ++b) {
      if (!dyn.graph().HasEdge(a, b)) {
        u = a;
        v = b;
        break;
      }
    }
  }
  ASSERT_NE(u, v);
  ASSERT_TRUE(dyn.Apply(EdgeUpdate::Insert(u, v)).ok());
  EXPECT_NE(dyn.digest().ToHex(), before);
  ASSERT_TRUE(dyn.Apply(EdgeUpdate::Remove(u, v)).ok());
  EXPECT_EQ(dyn.digest().ToHex(), before);
  EXPECT_EQ(dyn.updates_applied(), 2);
}

TEST(DynamicGraphTest, InvalidUpdatesAreRejectedAndLeaveStateUntouched) {
  Graph base = Graph::FromEdges(4, {{0, 1}, {1, 2}});
  DynamicGraph dyn(base);
  const std::string before = dyn.digest().ToHex();

  EXPECT_EQ(dyn.Apply(EdgeUpdate::Insert(0, 0)).code(),
            StatusCode::kInvalidArgument);  // self loop
  EXPECT_EQ(dyn.Apply(EdgeUpdate::Insert(0, 1)).code(),
            StatusCode::kInvalidArgument);  // already present
  EXPECT_EQ(dyn.Apply(EdgeUpdate::Remove(0, 3)).code(),
            StatusCode::kInvalidArgument);  // absent
  EXPECT_EQ(dyn.Apply(EdgeUpdate::Insert(0, 4)).code(),
            StatusCode::kInvalidArgument);  // out of range
  EXPECT_EQ(dyn.Apply(EdgeUpdate::Insert(-1, 2)).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(dyn.updates_applied(), 0);
  EXPECT_TRUE(dyn.graph() == base);
  EXPECT_EQ(dyn.digest().ToHex(), before);
  ExpectMatchesFullRecompute(dyn);
}

TEST(DynamicGraphTest, ApplyAllRollsBackOnFailure) {
  Graph base = Graph::FromEdges(5, {{0, 1}, {1, 2}});
  DynamicGraph dyn(base);
  const std::string before = dyn.digest().ToHex();

  // Third update is invalid (0-1 still present after the valid prefix), so
  // the first two must be rolled back.
  Status s = dyn.ApplyAll({EdgeUpdate::Insert(2, 3),
                           EdgeUpdate::Remove(1, 2),
                           EdgeUpdate::Insert(0, 1)});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(dyn.graph().HasEdge(0, 1));
  EXPECT_TRUE(dyn.graph().HasEdge(1, 2));
  EXPECT_FALSE(dyn.graph().HasEdge(2, 3));
  EXPECT_EQ(dyn.digest().ToHex(), before);
  // The rolled-back batch counts zero: neither the applied prefix nor the
  // inverses that undid it show up in the committed-update counter.
  EXPECT_EQ(dyn.updates_applied(), 0);
  ExpectMatchesFullRecompute(dyn);

  // The same batch without the poison pill applies cleanly.
  EXPECT_TRUE(
      dyn.ApplyAll({EdgeUpdate::Insert(2, 3), EdgeUpdate::Remove(1, 2)})
          .ok());
  EXPECT_TRUE(dyn.graph().HasEdge(2, 3));
  EXPECT_FALSE(dyn.graph().HasEdge(1, 2));
  EXPECT_EQ(dyn.updates_applied(), 2);
  ExpectMatchesFullRecompute(dyn);
}

// --- GraphDigest semantics --------------------------------------------------

TEST(GraphDigestTest, SeparatesVertexPermutations) {
  // A renumbered copy is isomorphic but not equal: DEEPMAP breaks
  // centrality ties by vertex id, so the two can get different logits and
  // must not share a cache entry.
  Rng rng(21);
  const Graph g = RandomGraph(rng, 12, 0.25);
  int distinct = 0;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Vertex> perm(12);
    for (int v = 0; v < 12; ++v) perm[static_cast<size_t>(v)] = v;
    for (int v = 11; v > 0; --v) {
      std::swap(perm[static_cast<size_t>(v)],
                perm[rng.Index(static_cast<size_t>(v) + 1)]);
    }
    const Graph permuted = g.Permuted(perm);
    if (permuted == g) continue;  // an automorphism: same graph, same key
    ++distinct;
    EXPECT_NE(DigestOf(permuted).ToHex(), DigestOf(g).ToHex());
  }
  EXPECT_GT(distinct, 0);

  // Equal graphs share a digest whatever order they were built in.
  const std::vector<std::pair<Vertex, Vertex>> edges = g.EdgeList();
  std::vector<std::pair<Vertex, Vertex>> reversed;
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    reversed.emplace_back(it->second, it->first);
  }
  const Graph rebuilt = Graph::FromEdges(12, reversed, g.Labels());
  EXPECT_EQ(DigestOf(rebuilt).ToHex(), DigestOf(g).ToHex());
}

TEST(GraphDigestTest, SeparatesGraphsWlCanSeparate) {
  const Graph path = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph star = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_NE(DigestOf(path).ToHex(), DigestOf(star).ToHex());

  // A single label change is a different graph.
  Graph relabeled = path;
  relabeled.SetLabel(2, 1);
  EXPECT_NE(DigestOf(relabeled).ToHex(), DigestOf(path).ToHex());

  // So is an extra isolated vertex.
  Graph grown = path;
  grown.AddVertex();
  EXPECT_NE(DigestOf(grown).ToHex(), DigestOf(path).ToHex());
}

TEST(GraphDigestTest, SeparatesWlEquivalentPair) {
  // C6 vs two triangles: the classic 1-WL-equivalent pair (same vertex and
  // edge count, every vertex 2-regular with identical labels). WL at any
  // depth cannot separate them, but their receptive fields differ, so the
  // digest must.
  const Graph c6 = Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  const Graph triangles = Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_NE(DigestOf(c6).ToHex(), DigestOf(triangles).ToHex());
}

}  // namespace
}  // namespace deepmap::graph
