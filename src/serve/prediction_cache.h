// Sharded, lock-striped LRU prediction cache keyed by an exact graph digest.
//
// Serving traffic is heavy on resubmissions (the same molecule screened
// twice, the same ego network re-ranked); a warm hit skips preprocessing
// and the forward pass entirely. The key is the hex of graph::DigestOf, a
// 128-bit digest of every vertex (id, label) and every edge, so one entry
// only ever serves the graph it was computed for: a hit returns the bytes a
// fresh Predict(Preprocess(g)) would whenever preprocessing is a function
// of the graph alone (true for the WL, SP and Tree++ maps, whose color ids
// never change once assigned; graphlet sampling draws from a shared RNG
// stream). The exception is a digest collision: ~2^-128 for graphs not
// crafted against the digest, which is unkeyed (see graph/digest.h).
// The key is deliberately NOT an isomorphism or WL invariant: DEEPMAP
// aligns vertices by eigenvector centrality with ties broken by vertex id,
// so a renumbered copy of a graph — let alone a WL-equivalent
// non-isomorphic one — can map to a different input tensor and different
// logits. A cache may only merge inputs the model maps to the same output.
// Building the key is one O(|V| + |E|) pass with no sort.
//
// Concurrency: the key space is hash-partitioned into `num_shards` shards,
// each a self-contained LRU (list + index + hit/miss/eviction counters)
// behind its own mutex. Lookups and inserts for different shards never
// contend, which is what lets one cache be shared by every replica of a
// ServeCluster; a single-shard cache (the default constructor) degenerates
// to the original global-lock LRU with one process-wide recency order.
// Capacity is split exactly across shards — every shard gets
// floor(capacity / num_shards) slots and the first capacity % num_shards
// shards one extra — so the per-shard capacities always sum to `capacity`.
// (The previous ceil-division split handed every shard the rounded-up
// quota, letting the cache hold up to num_shards - 1 entries more than
// configured.) num_shards is clamped to capacity (when nonzero), so no
// shard is ever allotted zero slots — a zero-slot shard would silently
// never cache its slice of the key space. Eviction is a per-shard
// decision: the recency order is exact within a shard and approximate
// globally.
//
// When a MetricsRegistry is supplied, every shard exports its counters as
//   deepmap_serve_cache_shard<i>_hits_total
//   deepmap_serve_cache_shard<i>_misses_total
//   deepmap_serve_cache_shard<i>_evictions_total
// so a scrape shows striping balance, not just aggregates.
//
// All operations are O(1) amortized and take exactly one shard mutex.
#ifndef DEEPMAP_SERVE_PREDICTION_CACHE_H_
#define DEEPMAP_SERVE_PREDICTION_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/digest.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "serve/compiled_model.h"

namespace deepmap::serve {

/// Thread-safe sharded LRU map from graph digest key to Prediction.
class PredictionCache {
 public:
  /// `capacity` == 0 disables the cache (every Lookup misses). `num_shards`
  /// is clamped to [1, max(capacity, 1)] so every shard owns at least one
  /// slot; per-shard capacities sum exactly to `capacity`.
  /// When `registry` is non-null (it must outlive the cache), per-shard
  /// hit/miss/eviction counters are registered on it.
  explicit PredictionCache(size_t capacity, size_t num_shards = 1,
                           obs::MetricsRegistry* registry = nullptr);

  /// Cache key of `g`: the 32 hex digits of graph::DigestOf(g).
  /// `wl_iterations` is unused by the key; it is kept so callers written
  /// against the former WL-hash key still compile.
  static std::string KeyFor(const graph::Graph& g, int wl_iterations);

  /// The key KeyFor would produce for a graph with this digest (the
  /// DynamicGraph path, which maintains the digest per edge).
  static std::string KeyFromDigest(const graph::GraphDigest& digest);

  /// The shard `key` stripes onto (stable for the cache's lifetime).
  size_t ShardIndexFor(const std::string& key) const;

  /// Returns the cached prediction and refreshes its recency, or nullopt.
  std::optional<Prediction> Lookup(const std::string& key);

  /// Inserts (or refreshes) `key`, evicting the least recently used entry
  /// of its shard when that shard is at capacity. No-op when disabled.
  void Insert(const std::string& key, Prediction prediction);

  /// Removes exactly `key` from its shard, if present. Returns whether an
  /// entry was dropped. The serve path never calls it (exact keys never go
  /// stale, so ClassifyDelta keeps the pre-delta entry); servebench's
  /// replay still does.
  bool Erase(const std::string& key);

  /// Drops every entry in every shard. Hit/miss/eviction counters are
  /// preserved (they describe traffic, not contents). Used on hot model
  /// swap: cached predictions belong to the replaced model version.
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  /// Largest per-shard capacity (shard 0's; shards differ by at most one).
  size_t shard_capacity() const { return shards_[0]->capacity; }
  /// Capacity of one specific shard.
  size_t shard_capacity(size_t shard) const {
    return shards_[shard]->capacity;
  }

  /// Aggregates over all shards.
  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;

  /// Per-shard counters (for tests and striping diagnostics).
  int64_t shard_hits(size_t shard) const;
  int64_t shard_misses(size_t shard) const;
  int64_t shard_evictions(size_t shard) const;
  size_t shard_size(size_t shard) const;

 private:
  using Entry = std::pair<std::string, Prediction>;

  /// One lock stripe: an independent LRU over its slice of the key space.
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;  // this shard's slice of the configured total
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    // Registry mirrors of the counters above; null without a registry.
    obs::Counter* hits_counter = nullptr;
    obs::Counter* misses_counter = nullptr;
    obs::Counter* evictions_counter = nullptr;
  };

  const size_t capacity_;  // configured total == sum of shard capacities
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_PREDICTION_CACHE_H_
