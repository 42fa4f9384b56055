#include "replay.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/check.h"
#include "core/alignment.h"
#include "core/receptive_field.h"
#include "kernels/wl.h"
#include "serve/dynamic_graphs.h"
#include "serve/prediction_cache.h"

namespace servebench {

using deepmap::graph::Graph;
using deepmap::graph::Vertex;
namespace serve = deepmap::serve;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Scoped span.
class Scope {
 public:
  Scope(SpanRecorder* spans, const char* name, int32_t parent,
        int64_t request)
      : spans_(spans), index_(spans->Begin(name, parent, request)) {}
  ~Scope() { spans_->End(index_); }
  int32_t index() const { return index_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* spans_;
  int32_t index_;
};

}  // namespace

int32_t SpanRecorder::Begin(const char* name, int32_t parent,
                            int64_t request) {
  spans_.push_back({name, NowNs(), 0, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

std::map<std::string, double> SpanRecorder::MeanMicros() const {
  std::map<std::string, std::pair<double, int64_t>> sums;
  for (const Span& s : spans_) {
    auto& [total, count] = sums[s.name];
    total += static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    ++count;
  }
  std::map<std::string, double> means;
  for (const auto& [name, sum] : sums) {
    means[name] = sum.first / static_cast<double>(sum.second);
  }
  return means;
}

double SpanRecorder::Coverage(const char* root) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  auto root_of = [this](size_t i) {
    while (spans_[i].parent >= 0) i = static_cast<size_t>(spans_[i].parent);
    return i;
  };
  int64_t self_ns = 0;
  int64_t wall_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::strcmp(spans_[root_of(i)].name, root) != 0) continue;
    if (s.parent < 0) {
      wall_ns += s.end_ns - s.start_ns;
    } else {
      self_ns += s.end_ns - s.start_ns - child_ns[i];
    }
  }
  return wall_ns > 0 ? static_cast<double>(self_ns) /
                           static_cast<double>(wall_ns)
                     : 0.0;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"request\":%lld}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, static_cast<long long>(s.request));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ReplayResult Replay(
    const WorkloadSpec& spec,
    const std::shared_ptr<serve::ServableModel>& servable,
    const deepmap::graph::GraphDataset& reference,
    const std::vector<std::pair<std::string, Graph>>& registered,
    const std::vector<ReplayOp>& ops, SpanRecorder* spans) {
  const deepmap::core::DeepMapConfig& config = servable->config();
  const serve::ServeCluster::Options cluster = ClusterOptions(spec);
  const int wl_iterations = cluster.cache_wl_iterations;
  const int w = servable->sequence_length();
  const int r = config.receptive_field_size;
  const int m = servable->feature_dim();
  const deepmap::kernels::DatasetVertexFeatures& features =
      servable->preprocessor().features();
  const serve::CompiledModel& compiled = servable->compiled();

  // The same state ServeCluster builds: a cache striped like the cluster's
  // (2 shards per replica) and a dynamic-graph store keyed at the cache's
  // WL depth. The refinery replays the reference set exactly as the
  // Preprocessor does at load.
  serve::PredictionCache cache(spec.cache_capacity, 2 * kReplicas);
  serve::DynamicGraphStore store(wl_iterations);
  for (const auto& [id, g] : registered) {
    DEEPMAP_CHECK(store.Register(id, g).ok());
  }
  deepmap::kernels::WlRefinement refinery(config.features.wl);
  for (const Graph& g : reference.graphs()) refinery.Refine(g);

  ReplayResult result;
  serve::ForwardScratch scratch;
  for (size_t k = 0; k < ops.size(); ++k) {
    const ReplayOp& op = ops[k];
    const auto request = static_cast<int64_t>(k);
    Graph mutated;
    const Graph* g = op.graph;
    std::string key;
    bool hit = false;
    deepmap::nn::Tensor input;
    {
      Scope root(spans, "request", -1, request);
      const int32_t parent = root.index();
      if (op.delta) {
        serve::DeltaResult delta;
        {
          Scope s(spans, "serve.dynamic.apply_delta", parent, request);
          auto applied = store.ApplyDelta(op.id, op.updates);
          DEEPMAP_CHECK(applied.ok());
          delta = std::move(applied).value();
        }
        if (delta.old_key != delta.new_key) {
          Scope s(spans, "serve.cache.erase", parent, request);
          cache.Erase(delta.old_key);
        }
        mutated = std::move(delta.graph);
        g = &mutated;
        key = std::move(delta.new_key);
      } else {
        Scope s(spans, "serve.cache.key", parent, request);
        key = serve::PredictionCache::KeyFor(*g, wl_iterations);
      }
      {
        Scope s(spans, "serve.cache.lookup", parent, request);
        hit = cache.Lookup(key).has_value();
      }
      if (!hit) {
        std::vector<deepmap::kernels::SparseFeatureMap> maps;
        {
          Scope s(spans, "kernels.feature_maps", parent, request);
          maps = deepmap::kernels::VertexWlFeatureMaps(*g, refinery);
        }
        const int n = g->NumVertices();
        std::vector<std::vector<float>> rows(static_cast<size_t>(n));
        {
          Scope s(spans, "kernels.densify", parent, request);
          for (int v = 0; v < n; ++v) {
            const std::vector<double> dense =
                features.DensifyRow(maps[static_cast<size_t>(v)]);
            rows[static_cast<size_t>(v)].assign(dense.begin(), dense.end());
          }
        }
        std::vector<double> centrality;
        {
          Scope s(spans, "core.centrality", parent, request);
          centrality =
              deepmap::core::ComputeCentrality(*g, config.alignment, nullptr);
        }
        std::vector<Vertex> sequence;
        {
          Scope s(spans, "core.alignment", parent, request);
          sequence =
              deepmap::core::GenerateVertexSequence(*g, centrality, w);
        }
        std::vector<std::vector<Vertex>> fields(static_cast<size_t>(w));
        {
          Scope s(spans, "core.receptive_field", parent, request);
          for (int slot = 0; slot < w; ++slot) {
            const Vertex v = sequence[static_cast<size_t>(slot)];
            if (v == deepmap::core::kDummyVertex) continue;
            fields[static_cast<size_t>(slot)] =
                deepmap::core::BuildReceptiveField(*g, v, r, centrality);
          }
        }
        {
          Scope s(spans, "serve.assembly", parent, request);
          input = deepmap::nn::Tensor({w * r, m});
          for (int slot = 0; slot < w; ++slot) {
            const std::vector<Vertex>& field =
                fields[static_cast<size_t>(slot)];
            for (size_t pos = 0; pos < field.size(); ++pos) {
              const Vertex u = field[pos];
              if (u == deepmap::core::kDummyVertex) continue;
              const std::vector<float>& row = rows[static_cast<size_t>(u)];
              std::copy(row.begin(), row.end(),
                        input.data() +
                            (static_cast<size_t>(slot) * r + pos) * m);
            }
          }
        }
        serve::Prediction prediction;
        {
          Scope s(spans, "serve.forward", parent, request);
          prediction = compiled.Predict(input, &scratch);
        }
        {
          Scope s(spans, "serve.cache.insert", parent, request);
          cache.Insert(key, std::move(prediction));
        }
      }
    }
    if (!hit) {
      for (float x : input.flat()) {
        if (x != 0.0f) result.nonzero_cells += 1.0;
      }
      result.total_cells += static_cast<double>(input.NumElements());
      // Cross-check after the request span: the program's own
      // preprocessing of the same graph, in the same dictionary history.
      auto expected = [&] {
        Scope s(spans, "serve.preprocess", -1, request);
        return servable->preprocessor().Preprocess(*g);
      }();
      if (!expected.ok() || expected.value().shape() != input.shape() ||
          std::memcmp(expected.value().data(), input.data(),
                      input.flat().size() * sizeof(float)) != 0) {
        ++result.tensor_mismatches;
      }
    }
    ++result.requests;
    ++(hit ? result.hits : result.misses);
  }
  result.coverage = spans->Coverage("request");
  return result;
}

}  // namespace servebench
