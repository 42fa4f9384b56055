#include "graph/dynamic_graph.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace deepmap::graph {

DynamicGraph::DynamicGraph(Graph base)
    : graph_(std::move(base)), digest_(DigestOf(graph_)) {}

Status DynamicGraph::Apply(const EdgeUpdate& update) {
  Status s = ApplyImpl(update);
  if (s.ok()) ++updates_applied_;
  return s;
}

Status DynamicGraph::ApplyImpl(const EdgeUpdate& update) {
  const Vertex u = update.u;
  const Vertex v = update.v;
  const int n = graph_.NumVertices();
  if (u < 0 || v < 0 || u >= n || v >= n) {
    return Status::InvalidArgument(
        "edge update endpoint out of range [0, " + std::to_string(n) + ")");
  }
  if (u == v) {
    return Status::InvalidArgument("edge update is a self loop");
  }
  // Graph::AddEdge/RemoveEdge refuse (and leave the graph untouched) an
  // already-present or absent edge.
  if (update.insert) {
    if (!graph_.AddEdge(u, v)) {
      return Status::InvalidArgument("inserting already-present edge");
    }
    digest_.AddEdge(u, v);
  } else {
    if (!graph_.RemoveEdge(u, v)) {
      return Status::InvalidArgument("removing absent edge");
    }
    digest_.RemoveEdge(u, v);
  }
  return Status::Ok();
}

Status DynamicGraph::ApplyAll(const std::vector<EdgeUpdate>& updates) {
  // The counter is committed once, after the whole batch lands: a failed
  // batch — prefix applied, then rolled back — leaves updates_applied()
  // unchanged, matching the graph it describes.
  for (size_t i = 0; i < updates.size(); ++i) {
    Status s = ApplyImpl(updates[i]);
    if (s.ok()) continue;
    // All-or-nothing: undo the applied prefix in reverse. Each inverse must
    // succeed — it reverts a mutation this loop just made.
    for (size_t j = i; j-- > 0;) {
      EdgeUpdate inverse = updates[j];
      inverse.insert = !inverse.insert;
      Status undo = ApplyImpl(inverse);
      DEEPMAP_CHECK(undo.ok());
    }
    return s;
  }
  updates_applied_ += static_cast<int64_t>(updates.size());
  return Status::Ok();
}

}  // namespace deepmap::graph
