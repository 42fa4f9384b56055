// The serve-path benchmark's workloads: one fixed table of model, cluster
// and traffic settings per workload, plus the seeded request sources.
//
// Why each workload exists (the layer it loads, and the one it spares):
//   novel_mol      never-seen molecule-like graphs: every request misses the
//                  cache and adds WL dictionary entries, so preprocessing,
//                  the forward pass, batching and dispatch carry the work
//                  while the cache key is cheap (small graphs).
//   repeat_social  Zipf draws over a pool of dense ego networks larger than
//                  the cache: hits dominate, and a hit costs mostly the
//                  cache key (a WL hash over ~2K edges); misses are
//                  preprocessing-heavy. The workload a cache-key change moves
//                  and novel_mol barely feels.
//   delta_dyn      registered protein-like graphs mutated by edge deltas
//                  through ClassifyDelta, beside reads of their current
//                  snapshots: the only traffic that reaches the dynamic
//                  graph store, incremental WL and exact cache erasure.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/deepmap.h"
#include "graph/dataset.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "serve/cluster.h"

namespace servebench {

enum class TrafficKind { kNovel, kRepeat, kDelta };

/// Settings shared by every workload (each run prints them in its
/// run_record line).
constexpr int kTrainEpochs = 2;
constexpr size_t kReplicas = 2;
constexpr size_t kPoolThreads = 1;  // per replica
constexpr int kMaxBatch = 32;
constexpr size_t kQueueCapacity = 4096;  // per replica
/// Share of --seconds spent in the open-loop phase of the workloads that have
/// one; the rest is the closed-loop phase.
constexpr double kOpenShare = 0.5;

/// The knobs in which the workloads differ. Fixed here so that two runs (and
/// two commits) of one workload differ only in --seed.
struct WorkloadSpec {
  const char* name;
  TrafficKind kind;
  /// Dataset family: the model is trained on its seed-42 set (the reference
  /// set) and requests come from the same generator on fresh seeds.
  const char* dataset;
  int reference_graphs;
  size_t cache_capacity;

  /// Unmeasured closed-loop requests (or delta operations) served before the
  /// measured phases, so allocators, caches and lazy state settle.
  int warmup_requests;
  /// Poisson arrival rate of the open-loop phase (0 = no open phase).
  double open_rate_rps;
  /// Requests kept in flight by the closed-loop generator.
  int closed_window;

  /// kRepeat: pool size and Zipf exponent. kDelta: graphs per caller.
  int pool_graphs;
  double zipf_s;

  /// kDelta: concurrent closed-loop callers, the share of operations that
  /// read (Submit the current snapshot), the share of writes that undo the
  /// graph's latest delta, and the operation count after which peak memory
  /// is read.
  int callers;
  double read_share;
  double undo_share;
  int rss_after_ops;

  /// Requests (or operations) replayed by the traced run.
  int replay_requests;
};

/// The workload named `name`; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Model + preprocessing configuration of the workload's DEEPMAP model.
deepmap::core::DeepMapConfig ModelConfig(const WorkloadSpec& spec);

/// The seed-42 training set, which is also the serving reference set.
deepmap::graph::GraphDataset ReferenceSet(const WorkloadSpec& spec);

/// Cluster options of the workload.
deepmap::serve::ServeCluster::Options ClusterOptions(const WorkloadSpec& spec);

/// Fresh graphs of the workload's family, generated in seeded blocks and
/// filtered to the model's contract (1 <= |V| <= max_vertices). The sequence
/// is a pure function of (spec, seed, max_vertices).
class GraphStream {
 public:
  GraphStream(const WorkloadSpec& spec, uint64_t seed, int max_vertices);
  /// The next graph; the reference stays valid until the following call.
  const deepmap::graph::Graph& Next();
  /// The next `n` graphs, copied.
  std::vector<deepmap::graph::Graph> Take(size_t n);

 private:
  const WorkloadSpec& spec_;
  uint64_t seed_;
  int max_vertices_;
  uint64_t block_ = 0;
  size_t pos_ = 0;
  std::vector<deepmap::graph::Graph> current_;
};

/// One operation of a delta_dyn caller.
struct DeltaOp {
  size_t graph = 0;  // index into the caller's ids
  bool read = false;  // Submit the snapshot instead of applying a delta
  std::vector<deepmap::graph::EdgeUpdate> updates;
};

/// One delta_dyn caller: owns `pool_graphs` registered graphs and a mirror of
/// each, and draws operations from its own seeded stream. Choices never
/// depend on served results, so the operation sequence is a pure function of
/// (spec, seed, caller).
class DeltaCaller {
 public:
  DeltaCaller(const WorkloadSpec& spec, uint64_t seed, int caller,
              std::vector<deepmap::graph::Graph> bases);
  const std::vector<std::string>& ids() const { return ids_; }
  /// Current structure of graph `i` (identical to the server's copy).
  const deepmap::graph::Graph& mirror(size_t i) const { return mirrors_[i]; }
  /// Draws the next operation and applies it to the mirror.
  DeltaOp Next();

 private:
  const WorkloadSpec& spec_;
  uint64_t rng_state_;
  std::vector<std::string> ids_;
  std::vector<deepmap::graph::Graph> mirrors_;
  /// Applied, not yet undone deltas per graph (most recent last).
  std::vector<std::vector<std::vector<deepmap::graph::EdgeUpdate>>> history_;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
