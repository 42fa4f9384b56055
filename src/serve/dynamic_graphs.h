// DynamicGraphStore: registered long-lived graphs that serving mutates in
// place via edge deltas (ServeCluster::ClassifyDelta).
//
// Each registered graph is a graph::DynamicGraph, so applying a delta moves
// the graph's content digest by one edge leaf per update instead of
// rescanning the graph, and the store hands back the BEFORE and AFTER
// prediction-cache keys of the mutation — always equal to
// PredictionCache::KeyFor of the pre- and post-delta snapshots. The caller
// looks up the new key (a delta-then-revert sequence, or a registered graph
// returning to a structure classified before, hits without running the
// model).
//
// Locking is two-level: a store mutex guards the id map, a per-entry mutex
// serializes deltas against the same graph. Deltas on different graphs
// never contend, and neither level is held while the model runs. Entries
// are shared_ptr-owned: a lookup copies the reference under the store
// mutex, so a concurrent Unregister only drops the map's reference and the
// entry outlives (and is destroyed after) any delta still using it.
#ifndef DEEPMAP_SERVE_DYNAMIC_GRAPHS_H_
#define DEEPMAP_SERVE_DYNAMIC_GRAPHS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"

namespace deepmap::serve {

/// Outcome of one ApplyDelta: the mutated snapshot plus the cache keys the
/// delta moved the graph between.
struct DeltaResult {
  graph::Graph graph;   // snapshot after the delta
  std::string old_key;  // prediction-cache key before
  std::string new_key;  // prediction-cache key after
  int64_t applied = 0;  // edge updates applied
};

/// Thread-safe id -> DynamicGraph map.
class DynamicGraphStore {
 public:
  /// `wl_iterations` is unused by the keys (they are exact digests, see
  /// PredictionCache::KeyFor); servebench/ still passes it.
  explicit DynamicGraphStore(int wl_iterations);

  /// Registers `g` under `id`; FailedPrecondition if the id is taken.
  Status Register(const std::string& id, graph::Graph g);

  /// Drops `id`; NotFound if absent. A delta already in flight against the
  /// entry finishes on its own reference; the entry is freed when the last
  /// holder releases it.
  Status Unregister(const std::string& id);

  /// Applies `updates` atomically to `id` (graph::DynamicGraph::ApplyAll:
  /// an invalid update rolls back the whole batch and the graph is
  /// untouched). NotFound for an unknown id, InvalidArgument (from the
  /// rollback) for a bad delta. An empty delta is valid: keys equal, zero
  /// applied — a pure cache probe.
  StatusOr<DeltaResult> ApplyDelta(
      const std::string& id, const std::vector<graph::EdgeUpdate>& updates);

  /// Copy of the current graph; NotFound if absent.
  StatusOr<graph::Graph> Snapshot(const std::string& id) const;

  /// Current prediction-cache key of `id`; NotFound if absent.
  StatusOr<std::string> CacheKey(const std::string& id) const;

  size_t size() const;

 private:
  struct Entry {
    explicit Entry(graph::Graph g) : dyn(std::move(g)) {}
    std::mutex mu;
    graph::DynamicGraph dyn;
  };

  /// Looks up the entry under mu_ and returns a shared reference (null if
  /// absent). The copy keeps the entry — and its mutex — alive even if a
  /// concurrent Unregister erases the map's reference before the caller
  /// locks entry->mu.
  std::shared_ptr<Entry> Find(const std::string& id) const;

  mutable std::mutex mu_;  // guards graphs_ (the map, not the entries)
  std::unordered_map<std::string, std::shared_ptr<Entry>> graphs_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_DYNAMIC_GRAPHS_H_
