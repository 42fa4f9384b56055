// DynamicGraph: strict edge insert/delete over Graph with an O(1) digest
// update per edge.
//
// The serving stack keys its prediction cache on the graph's exact content
// digest (graph/digest.h): vertex count, every (id, label) and the edge set.
// That digest is a modular sum of per-vertex and per-edge leaves, so an edge
// delta moves it by exactly one edge leaf per lane — Apply() adds or
// subtracts that leaf and never rescans the graph. The maintained digest is
// always equal to DigestOf(graph()), the equality the dynamic test suites
// fuzz. Nothing else is maintained: on a cache miss the serving layer runs
// the mutated snapshot through the full pipeline (centrality, alignment,
// receptive fields, forward pass), so ClassifyDelta answers are
// bit-identical to a fresh Classify of the same graph.
//
// Deltas are strict: inserting a present edge, removing an absent one, self
// loops, and out-of-range endpoints are InvalidArgument. ApplyAll is
// all-or-nothing (a failed batch rolls back its applied prefix). The vertex
// set is fixed at construction.
//
// Not thread-safe; serve::DynamicGraphStore adds per-graph locking.
#ifndef DEEPMAP_GRAPH_DYNAMIC_GRAPH_H_
#define DEEPMAP_GRAPH_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/digest.h"
#include "graph/graph.h"

namespace deepmap::graph {

/// One edge mutation.
struct EdgeUpdate {
  Vertex u = 0;
  Vertex v = 0;
  bool insert = true;

  static EdgeUpdate Insert(Vertex u, Vertex v) { return {u, v, true}; }
  static EdgeUpdate Remove(Vertex u, Vertex v) { return {u, v, false}; }
};

/// A Graph plus its incrementally maintained content digest.
class DynamicGraph {
 public:
  explicit DynamicGraph(Graph base);

  const Graph& graph() const { return graph_; }
  /// Always equal to DigestOf(graph()).
  const GraphDigest& digest() const { return digest_; }
  /// Edge updates committed to the graph. A failed ApplyAll batch counts
  /// zero: neither its rolled-back prefix nor the rollback itself shows up.
  int64_t updates_applied() const { return updates_applied_; }

  /// Applies one edge mutation and updates the digest by one edge leaf.
  /// InvalidArgument (graph untouched) for out-of-range endpoints, self
  /// loops, inserting a present edge, or removing an absent one.
  Status Apply(const EdgeUpdate& update);

  /// Applies a delta atomically: on the first invalid update the already
  /// applied prefix is rolled back and the graph is exactly as before.
  Status ApplyAll(const std::vector<EdgeUpdate>& updates);

 private:
  /// Apply() minus the updates_applied_ bump; ApplyAll uses it so a rolled
  /// back batch (and its rollback) leaves the counter untouched.
  Status ApplyImpl(const EdgeUpdate& update);

  Graph graph_;
  GraphDigest digest_;
  int64_t updates_applied_ = 0;
};

}  // namespace deepmap::graph

#endif  // DEEPMAP_GRAPH_DYNAMIC_GRAPH_H_
