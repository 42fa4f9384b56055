#include "workloads.h"

#include <utility>

#include "common/check.h"
#include "datasets/registry.h"
#include "traffic.h"

namespace servebench {

using deepmap::graph::EdgeUpdate;
using deepmap::graph::Graph;

namespace {

constexpr int kBlockGraphs = 64;

const std::vector<WorkloadSpec> kWorkloads = {
    {.name = "novel_mol",
     .kind = TrafficKind::kNovel,
     .dataset = "PTC_MM",
     .reference_graphs = 336,
     .cache_capacity = 4096,
     .warmup_requests = 1000,
     .open_rate_rps = 1000.0,
     .closed_window = 64,
     .pool_graphs = 0,
     .zipf_s = 0.0,
     .callers = 0,
     .read_share = 0.0,
     .undo_share = 0.0,
     .rss_after_ops = 0,
     .replay_requests = 2000},
    {.name = "repeat_social",
     .kind = TrafficKind::kRepeat,
     .dataset = "COLLAB",
     .reference_graphs = 150,
     .cache_capacity = 256,
     .warmup_requests = 1000,
     .open_rate_rps = 500.0,
     .closed_window = 32,
     .pool_graphs = 600,
     .zipf_s = 1.0,
     .callers = 0,
     .read_share = 0.0,
     .undo_share = 0.0,
     .rss_after_ops = 0,
     .replay_requests = 1500},
    {.name = "delta_dyn",
     .kind = TrafficKind::kDelta,
     .dataset = "PROTEINS",
     .reference_graphs = 200,
     .cache_capacity = 4096,
     .warmup_requests = 500,
     .open_rate_rps = 0.0,
     .closed_window = 0,
     .pool_graphs = 16,
     .zipf_s = 0.0,
     .callers = 2,
     .read_share = 0.3,
     .undo_share = 0.3,
     .rss_after_ops = 2000,
     .replay_requests = 2000},
};

deepmap::graph::GraphDataset Generate(const WorkloadSpec& spec, int count,
                                      uint64_t seed) {
  deepmap::datasets::DatasetOptions options;
  options.scale = 0.0;  // exactly `count` graphs (rounded up per class)
  options.min_graphs = count;
  options.seed = seed;
  auto dataset = deepmap::datasets::MakeDataset(spec.dataset, options);
  DEEPMAP_CHECK(dataset.ok());
  return std::move(dataset).value();
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

deepmap::core::DeepMapConfig ModelConfig(const WorkloadSpec& spec) {
  deepmap::core::DeepMapConfig config;
  config.features.kind = deepmap::kernels::FeatureMapKind::kWlSubtree;
  config.features.wl.iterations = 2;
  config.features.max_dense_dim = 64;
  config.train.epochs = kTrainEpochs;
  config.train.batch_size = 8;
  return config;
}

deepmap::graph::GraphDataset ReferenceSet(const WorkloadSpec& spec) {
  return Generate(spec, spec.reference_graphs, 42);
}

deepmap::serve::ServeCluster::Options ClusterOptions(const WorkloadSpec& spec) {
  deepmap::serve::ServeCluster::Options options;
  options.num_replicas = kReplicas;
  options.replica.num_threads = kPoolThreads;
  options.replica.max_batch = kMaxBatch;
  options.replica.queue_capacity = kQueueCapacity;
  options.cache_capacity = spec.cache_capacity;
  return options;
}

GraphStream::GraphStream(const WorkloadSpec& spec, uint64_t seed,
                         int max_vertices)
    : spec_(spec), seed_(seed), max_vertices_(max_vertices) {}

const Graph& GraphStream::Next() {
  for (;;) {
    while (pos_ >= current_.size()) {
      deepmap::graph::GraphDataset block =
          Generate(spec_, kBlockGraphs, MixSeed(seed_, block_++));
      current_ = block.graphs();
      pos_ = 0;
    }
    const Graph& g = current_[pos_++];
    // Graphs larger than the model's sequence length are out of contract
    // (Preprocess rejects them with InvalidArgument) and are never sent.
    if (g.NumVertices() >= 1 && g.NumVertices() <= max_vertices_) return g;
  }
}

std::vector<Graph> GraphStream::Take(size_t n) {
  std::vector<Graph> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(Next());
  return out;
}

DeltaCaller::DeltaCaller(const WorkloadSpec& spec, uint64_t seed, int caller,
                         std::vector<Graph> bases)
    : spec_(spec), rng_state_(MixSeed(seed, 0xca11e4 + caller)) {
  for (size_t b = 0; b < bases.size(); ++b) {
    ids_.push_back("c" + std::to_string(caller) + "-g" + std::to_string(b));
  }
  mirrors_ = std::move(bases);
  history_.resize(mirrors_.size());
}

DeltaOp DeltaCaller::Next() {
  SplitMix64 rng(rng_state_);
  rng_state_ = rng.Next();
  DeltaOp op;
  op.graph = rng.Below(mirrors_.size());
  if (rng.Uniform() < spec_.read_share) {
    op.read = true;
    return op;
  }
  Graph& g = mirrors_[op.graph];
  auto& history = history_[op.graph];
  if (!history.empty() && rng.Uniform() < spec_.undo_share) {
    // Undo the latest delta: inverse updates in reverse order.
    const std::vector<EdgeUpdate>& last = history.back();
    for (auto it = last.rbegin(); it != last.rend(); ++it) {
      op.updates.push_back({it->u, it->v, !it->insert});
    }
    history.pop_back();
  } else {
    // One edge update: remove an existing edge or insert an absent one,
    // with equal odds (always valid, so no delta is rejected). A complete
    // graph can only lose an edge.
    const int n = g.NumVertices();
    const int64_t max_edges = int64_t{n} * (n - 1) / 2;
    if (max_edges == 0) {
      op.read = true;
      return op;
    }
    const bool remove =
        g.NumEdges() == max_edges ||
        (g.NumEdges() > 0 && (rng.Next() & 1) != 0);
    if (remove) {
      const std::vector<std::pair<deepmap::graph::Vertex,
                                  deepmap::graph::Vertex>> edges =
          g.EdgeList();
      const auto& [u, v] = edges[rng.Below(edges.size())];
      op.updates.push_back(EdgeUpdate::Remove(u, v));
    } else {
      for (;;) {
        const auto u = static_cast<deepmap::graph::Vertex>(rng.Below(n));
        const auto v = static_cast<deepmap::graph::Vertex>(rng.Below(n));
        if (u != v && !g.HasEdge(u, v)) {
          op.updates.push_back(EdgeUpdate::Insert(u, v));
          break;
        }
      }
    }
    history.push_back(op.updates);
  }
  for (const EdgeUpdate& e : op.updates) {
    const bool applied = e.insert ? g.AddEdge(e.u, e.v) : g.RemoveEdge(e.u, e.v);
    DEEPMAP_CHECK(applied);
  }
  return op;
}

}  // namespace servebench
