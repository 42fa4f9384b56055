// Exact content digest of a labelled graph: the identity the serving stack
// keys its prediction cache on.
//
// DEEPMAP's input is not invariant under WL equivalence, nor even under an
// isomorphic renumbering (centrality ties are broken by vertex id), so a
// cache may only merge requests that are the SAME graph: equal vertex
// count, equal (id, label) per vertex and equal edge set. Adjacency is kept
// sorted, so those fully determine a Graph, and two distinct graphs share
// a digest with probability ~2^-128 when their content is not chosen
// against the digest.
//
// That bound assumes non-adversarial inputs. The digest is unkeyed and
// linear (a modular sum of public leaf values), so an attacker who knows a
// target graph can search for a different edge set with the same sum
// (Wagner's generalized-birthday attack). A cache shared by tenants who may
// craft graphs against each other needs a keyed digest (ROADMAP item 2).
//
// The digest is two independently mixed 64-bit lanes. Each lane is a
// commutative modular sum of leaves, one per vertex (id, label) and one per
// edge (u < v), so:
//   - DigestOf is one O(|V| + |E|) pass with no sort and no allocation;
//   - an edge insert/delete adds/subtracts one leaf per lane, so
//     graph::DynamicGraph keeps the digest current in O(1) per edge.
#ifndef DEEPMAP_GRAPH_DIGEST_H_
#define DEEPMAP_GRAPH_DIGEST_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"

namespace deepmap::graph {

/// Order-independent 128-bit digest of a labelled graph's content.
struct GraphDigest {
  uint64_t lo = 0;
  uint64_t hi = 0;

  void AddVertex(Vertex v, Label label);
  /// Edge {u, v}; endpoint order does not matter.
  void AddEdge(Vertex u, Vertex v);
  /// Exact inverse of AddEdge.
  void RemoveEdge(Vertex u, Vertex v);

  /// 32 lowercase hex digits (hi lane first).
  std::string ToHex() const;

  friend bool operator==(const GraphDigest&, const GraphDigest&) = default;
};

/// Digest of `g`: every vertex (id, label) and every edge, in one pass.
GraphDigest DigestOf(const Graph& g);

}  // namespace deepmap::graph

#endif  // DEEPMAP_GRAPH_DIGEST_H_
