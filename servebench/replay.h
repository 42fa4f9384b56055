// Traced replay: a workload's request stream run single-threaded through the
// public functions of each serving layer, in pipeline order, with a span
// around every call.
//
//   request                       one served request (root span)
//     serve.dynamic.apply_delta   DynamicGraphStore::ApplyDelta (deltas)
//     serve.cache.erase           PredictionCache::Erase of the stale key
//     serve.cache.key             PredictionCache::KeyFor (submits)
//     serve.cache.lookup          PredictionCache::Lookup
//     kernels.feature_maps        VertexWlFeatureMaps on a WL refinery
//                                 replayed over the reference set
//     kernels.densify             DatasetVertexFeatures::DensifyRow per vertex
//     core.centrality             ComputeCentrality
//     core.alignment              GenerateVertexSequence
//     core.receptive_field        BuildReceptiveField per sequence slot
//     serve.assembly              rows copied into the [w*r, m] input
//     serve.forward               CompiledModel::Predict
//     serve.cache.insert          PredictionCache::Insert
//   serve.preprocess              Preprocessor::Preprocess on the same graph
//                                 (root span, outside the request: the
//                                 cross-check, not a layer)
//
// Spans live in memory and are written out as a Chrome trace at the end.
// The replay checks its own attribution: every assembled input must equal
// Preprocess's byte for byte, and the layer spans' self times must cover the
// request spans' wall time (bench.trace_coverage).
#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "serve/model_registry.h"
#include "workloads.h"

namespace servebench {

/// One timed call. `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
};

/// In-memory span store.
class SpanRecorder {
 public:
  /// Opens a span and returns its index.
  int32_t Begin(const char* name, int32_t parent, int64_t request);
  void End(int32_t span);
  const std::vector<Span>& spans() const { return spans_; }

  /// Mean duration per span name, in microseconds.
  std::map<std::string, double> MeanMicros() const;
  /// Sum of the self times (duration minus the time covered by child spans)
  /// of every span below a root named `root`, over the summed wall time of
  /// those roots.
  double Coverage(const char* root) const;
  /// Writes a Chrome trace_event file. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// One replayed request: a Submit of `graph`, or a ClassifyDelta of
/// `updates` against the registered `id`.
struct ReplayOp {
  const deepmap::graph::Graph* graph = nullptr;
  std::string id;
  std::vector<deepmap::graph::EdgeUpdate> updates;
  bool delta = false;
};

struct ReplayResult {
  int64_t requests = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  /// Misses whose assembled input differed from Preprocess's.
  int64_t tensor_mismatches = 0;
  double nonzero_cells = 0.0;
  double total_cells = 0.0;
  double coverage = 0.0;
};

/// Replays `ops` against `servable` (fresh: its WL dictionary must not have
/// seen traffic) with a private cache sized like the cluster's and a private
/// dynamic-graph store holding `registered`.
ReplayResult Replay(
    const WorkloadSpec& spec,
    const std::shared_ptr<deepmap::serve::ServableModel>& servable,
    const deepmap::graph::GraphDataset& reference,
    const std::vector<std::pair<std::string, deepmap::graph::Graph>>&
        registered,
    const std::vector<ReplayOp>& ops, SpanRecorder* spans);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
