// Benchmarks dynamic-graph serving (graph/dynamic_graph.h, ClassifyDelta,
// and the sharded streaming corpus) and writes the results as JSON
// (default: BENCH_dynamic_serve.json in the working directory; argv[1]
// overrides).
//
// Three sections:
//
//   key_update (gated): per-delta cost of the DynamicGraph key path — Apply
//     plus the O(1) digest-leaf update and key assembly, what
//     DynamicGraphStore::ApplyDelta does per edge — vs a from-scratch
//     PredictionCache::KeyFor on the identically mutated 10^4-vertex R-MAT
//     graph. Every delta cross-checks the two keys byte-for-byte. Gate:
//     median speedup >= 10x and zero key mismatches.
//
//   classify_delta (reported, gated only on correctness): end-to-end
//     ServeCluster::ClassifyDelta latency on registered molecule graphs,
//     split into cache misses (a structure-changing delta: full pipeline on
//     the mutated snapshot) and cache hits (an empty delta re-reading the
//     current structure). Every answer is compared with a fresh
//     Predict(Preprocess(snapshot)); the gate is zero differing answers.
//
//   streaming (gated): a multi-shard TU corpus is written and re-read
//     through ShardedTuCorpus; the resident set is one shard by
//     construction, and the gate pins it — the largest materialized batch
//     must stay within 2x of total_bytes / num_shards (the factor absorbs
//     shard-size rounding), i.e. peak memory is bounded by one shard, not
//     the corpus.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "core/deepmap.h"
#include "datasets/random_graphs.h"
#include "datasets/registry.h"
#include "datasets/sharded_tu_corpus.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "nn/model.h"
#include "serve/cluster.h"
#include "serve/model_registry.h"
#include "serve/prediction_cache.h"

namespace {

using namespace deepmap;
using Clock = std::chrono::steady_clock;

/// Approximate heap footprint of one graph: labels plus both directions of
/// every adjacency entry. Good enough to compare a batch against the corpus.
size_t ApproxGraphBytes(const graph::Graph& g) {
  return sizeof(graph::Graph) +
         static_cast<size_t>(g.NumVertices()) *
             (sizeof(graph::Label) + sizeof(std::vector<graph::Vertex>)) +
         2 * static_cast<size_t>(g.NumEdges()) * sizeof(graph::Vertex);
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Nearest-rank percentile (q in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::max<size_t>(rank, 1) - 1];
}

struct ServeResult {
  bool ok = true;
  int registered = 0;
  int64_t wrong_answers = 0;
  std::vector<double> miss_us, hit_us;
};

bool SameAnswer(const serve::Prediction& a, const serve::Prediction& b) {
  return a.label == b.label && a.probabilities == b.probabilities;
}

/// Trains a small PTC_MM model, registers molecules as dynamic graphs on a
/// 2-replica ServeCluster, and alternates a random edge toggle (a new
/// structure: cache miss) with an empty delta (re-reads the current
/// structure: cache hit) on each. Latencies are bucketed by the cluster's
/// own hit counter; every answer is checked against a fresh
/// Predict(Preprocess(snapshot)) outside the timed region.
ServeResult RunClassifyDelta(int deltas) {
  ServeResult result;
  datasets::DatasetOptions options;
  options.min_graphs = 30;
  auto dataset_or = datasets::MakeDataset("PTC_MM", options);
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "%s\n", dataset_or.status().ToString().c_str());
    result.ok = false;
    return result;
  }
  const graph::GraphDataset& dataset = dataset_or.value();
  core::DeepMapConfig config;
  config.features.kind = kernels::FeatureMapKind::kWlSubtree;
  config.features.wl.iterations = 2;
  config.features.max_dense_dim = 32;
  config.train.epochs = 2;
  config.train.batch_size = 8;
  core::DeepMapPipeline pipeline(dataset, config);
  core::DeepMapModel model(pipeline.feature_dim(), pipeline.sequence_length(),
                           pipeline.num_classes(), config);
  nn::TrainClassifier(model, pipeline.inputs(), dataset.labels(),
                      config.train);
  serve::ModelRegistry registry;
  if (Status s = registry.Adopt("bench", dataset, config, model); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    result.ok = false;
    return result;
  }
  std::shared_ptr<serve::ServableModel> servable = registry.Get("bench");

  serve::ServeCluster::Options cluster_options;
  cluster_options.num_replicas = 2;
  cluster_options.replica.num_threads = 1;
  serve::ServeCluster cluster(servable, cluster_options);
  result.registered = std::min(8, dataset.size());
  std::vector<std::string> ids;
  for (int i = 0; i < result.registered; ++i) {
    ids.push_back("g" + std::to_string(i));
    if (!cluster.RegisterDynamicGraph(ids.back(), dataset.graph(i)).ok()) {
      result.ok = false;
      return result;
    }
    // Warm-up, untimed: fills the cache entry and lazy set-up.
    if (!cluster.ClassifyDelta(ids.back(), {}).ok()) result.ok = false;
  }

  Rng rng(0x5E4E);
  serve::ForwardScratch scratch;
  for (int d = 0; d < deltas; ++d) {
    const std::string& id = ids[static_cast<size_t>(d / 2) % ids.size()];
    const graph::Graph before = cluster.dynamic_graphs().Snapshot(id).value();
    std::vector<graph::EdgeUpdate> updates;
    if (d % 2 == 0) {
      const int nv = before.NumVertices();
      graph::Vertex u = 0, v = 0;
      while (u == v) {
        u = static_cast<graph::Vertex>(rng.Index(nv));
        v = static_cast<graph::Vertex>(rng.Index(nv));
      }
      updates.push_back(before.HasEdge(u, v) ? graph::EdgeUpdate::Remove(u, v)
                                             : graph::EdgeUpdate::Insert(u, v));
    }
    const int64_t hits_before = cluster.metrics().dynamic_incremental_hits();
    const auto start = Clock::now();
    StatusOr<serve::Prediction> answer = cluster.ClassifyDelta(id, updates);
    const double us = 1000.0 * MsSince(start);
    if (!answer.ok()) {
      result.ok = false;
      continue;
    }
    const bool hit = cluster.metrics().dynamic_incremental_hits() > hits_before;
    (hit ? result.hit_us : result.miss_us).push_back(us);

    const graph::Graph after = cluster.dynamic_graphs().Snapshot(id).value();
    StatusOr<nn::Tensor> input = servable->preprocessor().Preprocess(after);
    if (!input.ok() ||
        !SameAnswer(answer.value(),
                    servable->compiled().Predict(input.value(), &scratch))) {
      ++result.wrong_answers;
    }
  }
  return result;
}

graph::Graph RandomSmallGraph(Rng& rng) {
  const int n = 6 + static_cast<int>(rng.Index(20));
  graph::Graph g;
  for (int v = 0; v < n; ++v) {
    g.AddVertex(static_cast<graph::Label>(rng.Index(3)));
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(0.2)) g.AddEdge(u, v);
    }
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_dynamic_serve.json";
  const bool full = (argc > 2 && std::strcmp(argv[2], "--full") == 0) ||
                    (std::getenv("DEEPMAP_BENCH_FULL") != nullptr);

  const int n = 10000;
  const int edges_per_vertex = 8;
  const int num_deltas = full ? 400 : 120;
  // Half misses, half hits: >= 100 samples each, so p90 has >= 10 beyond.
  const int serve_deltas = full ? 800 : 200;

  bench::JsonValue doc = bench::BenchDoc("dynamic_serve");
  doc.Obj("flags")
      .Set("n", n)
      .Set("edges_per_vertex", edges_per_vertex)
      .Set("num_deltas", num_deltas)
      .Set("serve_deltas", serve_deltas)
      .Set("full", full);
  doc.Obj("seeds")
      .Set("graph", int64_t{0xD19A})
      .Set("serve", int64_t{0x5E4E});

  // ---- O(1) key update vs full KeyFor --------------------------------------
  Rng rng(0xD19A);
  graph::Graph base = datasets::RMat(n, edges_per_vertex, rng);
  graph::DynamicGraph dyn(base);
  graph::Graph shadow = base;  // mutated in lockstep, rekeyed from scratch

  std::vector<double> incr_ms, full_ms;
  incr_ms.reserve(num_deltas);
  full_ms.reserve(num_deltas);
  int mismatches = 0;
  for (int d = 0; d < num_deltas; ++d) {
    // Toggle a random pair so inserts and deletes mix.
    graph::Vertex u = 0, v = 0;
    while (u == v) {
      u = static_cast<graph::Vertex>(rng.Index(n));
      v = static_cast<graph::Vertex>(rng.Index(n));
    }
    const bool insert = !dyn.graph().HasEdge(u, v);
    const graph::EdgeUpdate update =
        insert ? graph::EdgeUpdate::Insert(u, v)
               : graph::EdgeUpdate::Remove(u, v);

    // Serving path: delta -> maintained digest -> key (ApplyDelta's work).
    auto start = Clock::now();
    if (!dyn.Apply(update).ok()) std::abort();
    const std::string incr_key =
        serve::PredictionCache::KeyFromDigest(dyn.digest());
    incr_ms.push_back(MsSince(start));

    if (insert) {
      if (!shadow.AddEdge(u, v)) std::abort();
    } else {
      if (!shadow.RemoveEdge(u, v)) std::abort();
    }
    start = Clock::now();
    const std::string full_key =
        serve::PredictionCache::KeyFor(shadow, /*wl_iterations=*/0);
    full_ms.push_back(MsSince(start));

    if (incr_key != full_key) ++mismatches;
  }

  const double incr_median = Percentile(incr_ms, 0.5);
  const double full_median = Percentile(full_ms, 0.5);
  const double speedup = incr_median > 0 ? full_median / incr_median : 0.0;
  const bool key_pass = mismatches == 0 && speedup >= 10.0;

  doc.Obj("key_update")
      .Set("graph_vertices", n)
      .Set("graph_edges", base.NumEdges())
      .Set("deltas", num_deltas)
      .Set("key_mismatches", mismatches)
      .Set("incremental_median_ms", bench::JsonValue::Fixed(incr_median, 5))
      .Set("full_median_ms", bench::JsonValue::Fixed(full_median, 4))
      .Set("speedup", bench::JsonValue::Fixed(speedup, 1))
      .Set("gate", "speedup >= 10 and key_mismatches == 0")
      .Set("pass", key_pass);

  // ---- end-to-end ClassifyDelta: hits vs misses ----------------------------
  const ServeResult served = RunClassifyDelta(serve_deltas);
  const bool serve_pass = served.ok && served.wrong_answers == 0;
  bench::JsonValue& cd = doc.Obj("classify_delta");
  cd.Set("dataset", "PTC_MM")
      .Set("registered_graphs", served.registered)
      .Set("wrong_answers", served.wrong_answers)
      .Set("gate", "wrong_answers == 0");
  for (const auto& [name, samples] :
       {std::pair<const char*, const std::vector<double>*>{"miss",
                                                           &served.miss_us},
        {"hit", &served.hit_us}}) {
    cd.Obj(name)
        .Set("count", samples->size())
        .Set("p50_us", bench::JsonValue::Fixed(Percentile(*samples, 0.50), 1))
        .Set("p90_us", bench::JsonValue::Fixed(Percentile(*samples, 0.90), 1));
  }
  cd.Set("pass", serve_pass);

  // ---- streaming corpus ----------------------------------------------------
  const int corpus_graphs = full ? 4000 : 1200;
  const int shard_size = corpus_graphs / 8;  // 8 equal shards
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("deepmap_bench_corpus_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  size_t total_bytes = 0;
  {
    datasets::ShardedTuCorpusWriter::Options wopts;
    wopts.shard_size = shard_size;
    datasets::ShardedTuCorpusWriter writer(dir.string(), "STREAM", wopts);
    Rng corpus_rng(0xC0FFEE);
    for (int i = 0; i < corpus_graphs; ++i) {
      graph::Graph g = RandomSmallGraph(corpus_rng);
      total_bytes += ApproxGraphBytes(g);
      if (!writer.Append(std::move(g), static_cast<int>(corpus_rng.Index(2)))
               .ok()) {
        std::abort();
      }
    }
    if (!writer.Finalize().ok()) std::abort();
  }

  size_t peak_batch_bytes = 0;
  int64_t streamed = 0;
  int num_shards = 0;
  double stream_ms = 0.0;
  {
    auto corpus = datasets::ShardedTuCorpus::Open(dir.string(), "STREAM");
    if (!corpus.ok()) std::abort();
    num_shards = corpus.value().num_shards();
    auto start = Clock::now();
    while (!corpus.value().Done()) {
      auto batch = corpus.value().NextBatch();
      if (!batch.ok()) std::abort();
      size_t batch_bytes = 0;
      for (int i = 0; i < batch.value().size(); ++i) {
        batch_bytes += ApproxGraphBytes(batch.value().graph(i));
      }
      peak_batch_bytes = std::max(peak_batch_bytes, batch_bytes);
      streamed += batch.value().size();
    }  // the batch (one shard) dies here: resident set is one shard
    stream_ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count();
  }
  std::filesystem::remove_all(dir);

  const double shard_budget_bytes =
      2.0 * static_cast<double>(total_bytes) / num_shards;
  const bool streaming_pass =
      streamed == corpus_graphs && num_shards >= 4 &&
      static_cast<double>(peak_batch_bytes) <= shard_budget_bytes;

  bench::JsonValue& stream = doc.Obj("streaming");
  stream.Set("corpus_graphs", corpus_graphs)
      .Set("num_shards", num_shards)
      .Set("shard_size", shard_size)
      .Set("corpus_bytes", total_bytes)
      .Set("peak_batch_bytes", peak_batch_bytes)
      .Set("shard_budget_bytes",
           bench::JsonValue::Fixed(shard_budget_bytes, 0))
      .Set("stream_ms", bench::JsonValue::Fixed(stream_ms, 2))
      .Set("pass", streaming_pass);

  const bool pass = key_pass && serve_pass && streaming_pass;
  doc.Set("pass", pass);
  bench::WriteBenchFile(out_path, doc);

  std::printf(
      "dynamic_serve: key update %.5f ms vs full KeyFor %.4f ms (%.1fx), "
      "%d mismatches -> %s\n",
      incr_median, full_median, speedup, mismatches,
      key_pass ? "PASS" : "FAIL");
  std::printf(
      "dynamic_serve: ClassifyDelta miss p50 %.1f us (n=%zu), hit p50 %.1f us "
      "(n=%zu), %lld wrong answers -> %s\n",
      Percentile(served.miss_us, 0.5), served.miss_us.size(),
      Percentile(served.hit_us, 0.5), served.hit_us.size(),
      static_cast<long long>(served.wrong_answers),
      serve_pass ? "PASS" : "FAIL");
  std::printf(
      "dynamic_serve: streamed %lld graphs over %d shards, peak batch "
      "%zu bytes vs one-shard budget %.0f -> %s\n",
      static_cast<long long>(streamed), num_shards, peak_batch_bytes,
      shard_budget_bytes, streaming_pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
