// Benchmarks the blocked GEMM core and the parallel DEEPMAP preprocessing
// pipeline against the seed implementations, and writes the results as JSON
// (default: BENCH_gemm_pipeline.json in the working directory; pass a path
// as argv[1] to override).
//
// Three sections:
//   gemm          — naive triple loop (the seed MatMul, zero-skip included)
//                   vs the blocked core at 1 and 8 threads, GFLOP/s.
//   preprocessing — legacy BuildDeepMapInputs (per-(slot,pos) DenseRow,
//                   sequential) and legacy GramMatrix (std::map-probe Dot)
//                   vs the current pipeline at 1 and 8 threads, wall ms.
//   epoch         — DEEPMAP training epoch time on the same dataset
//                   (trajectory metric).
// Every optimized result is checked for exact equality with its reference
// before timing is reported; "identical" records that check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "core/alignment.h"
#include "core/deepmap.h"
#include "core/receptive_field.h"
#include "datasets/registry.h"
#include "kernels/kernel_matrix.h"
#include "kernels/vertex_feature_map.h"
#include "nn/gemm.h"
#include "nn/model.h"
#include "nn/tensor.h"

namespace {

using namespace deepmap;
using Clock = std::chrono::steady_clock;

double TimeMs(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    fn();
    auto end = Clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(end - start).count());
  }
  return best;
}

void PinThreads(const char* value) { setenv("DEEPMAP_NUM_THREADS", value, 1); }

nn::Tensor RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t({rows, cols});
  for (int i = 0; i < t.NumElements(); ++i) {
    t.data()[i] = static_cast<float>(rng.Normal());
  }
  return t;
}

// The seed implementation of MatMul: i-k-j triple loop including the
// original `av == 0.0f` skip.
nn::Tensor SeedMatMul(const nn::Tensor& a, const nn::Tensor& b) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  nn::Tensor out({m, n});
  for (int i = 0; i < m; ++i) {
    for (int t = 0; t < k; ++t) {
      const float av = a.at(i, t);
      if (av == 0.0f) continue;
      for (int j = 0; j < n; ++j) out.at(i, j) += av * b.at(t, j);
    }
  }
  return out;
}

bool SameBits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.NumElements())) == 0;
}

struct GemmRow {
  int m, k, n;
  double naive_ms, serial_ms, parallel_ms;
  bool identical;
};

GemmRow BenchGemmShape(int m, int k, int n) {
  nn::Tensor a = RandomMatrix(m, k, 21);
  nn::Tensor b = RandomMatrix(k, n, 22);
  const long long flops = 2LL * m * k * n;
  const int reps = flops > (1LL << 24) ? 3 : 10;

  GemmRow row{m, k, n, 0, 0, 0, false};
  nn::Tensor naive_out, serial_out, parallel_out;
  row.naive_ms = TimeMs([&] { naive_out = SeedMatMul(a, b); }, reps);
  PinThreads("1");
  row.serial_ms = TimeMs([&] { serial_out = nn::MatMul(a, b); }, reps);
  PinThreads("8");
  row.parallel_ms = TimeMs([&] { parallel_out = nn::MatMul(a, b); }, reps);
  PinThreads("1");
  row.identical =
      SameBits(naive_out, serial_out) && SameBits(serial_out, parallel_out);
  return row;
}

// Legacy BuildDeepMapInput: densifies per (slot, pos) instead of per vertex,
// sequentially over graphs with one shared RNG — the seed implementation.
nn::Tensor LegacyBuildInput(const graph::Graph& g,
                            const kernels::DatasetVertexFeatures& features,
                            int graph_index, int sequence_length, int r,
                            core::AlignmentMeasure alignment, Rng* rng) {
  const int m = features.dim();
  nn::Tensor input({sequence_length * r, m});
  const std::vector<double> centrality =
      core::ComputeCentrality(g, alignment, rng);
  const std::vector<graph::Vertex> sequence =
      core::GenerateVertexSequence(g, centrality, sequence_length);
  for (int slot = 0; slot < sequence_length; ++slot) {
    const graph::Vertex v = sequence[slot];
    if (v == core::kDummyVertex) continue;
    const std::vector<graph::Vertex> field =
        core::BuildReceptiveField(g, v, r, centrality);
    for (int pos = 0; pos < r; ++pos) {
      const graph::Vertex u = field[pos];
      if (u == core::kDummyVertex) continue;
      const std::vector<double> row = features.DenseRow(graph_index, u);
      float* dst = input.data() + (static_cast<size_t>(slot) * r + pos) * m;
      for (int c = 0; c < m; ++c) dst[c] = static_cast<float>(row[c]);
    }
  }
  return input;
}

std::vector<nn::Tensor> LegacyBuildInputs(
    const graph::GraphDataset& dataset,
    const kernels::DatasetVertexFeatures& features,
    const core::DeepMapConfig& config) {
  const int w = std::max(1, dataset.MaxVertices());
  Rng rng(config.seed + 0x5eed);
  std::vector<nn::Tensor> inputs;
  inputs.reserve(dataset.size());
  for (int g = 0; g < dataset.size(); ++g) {
    inputs.push_back(LegacyBuildInput(dataset.graph(g), features, g, w,
                                      config.receptive_field_size,
                                      config.alignment, &rng));
  }
  return inputs;
}

// Legacy GramMatrix: sequential upper triangle with std::map-probe Dot.
kernels::Matrix LegacyGram(const std::vector<kernels::SparseFeatureMap>& maps,
                           bool normalize) {
  const size_t n = maps.size();
  kernels::Matrix k(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double value = maps[i].Dot(maps[j]);
      k[i][j] = value;
      k[j][i] = value;
    }
  }
  if (normalize) kernels::NormalizeKernelMatrix(k);
  return k;
}

bool SameInputs(const std::vector<nn::Tensor>& a,
                const std::vector<nn::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameMatrix(const kernels::Matrix& a, const kernels::Matrix& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(a[i].data(), b[i].data(), sizeof(double) * a[i].size()) !=
        0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_gemm_pipeline.json";
  PinThreads("1");

  // --- GEMM ---------------------------------------------------------------
  std::vector<GemmRow> gemm_rows;
  // 256^3 is the acceptance shape; the others mirror the library's real
  // call sites (conv1 im2col, dense layers, tall-skinny activations).
  for (auto [m, k, n] : std::vector<std::array<int, 3>>{
           {256, 256, 256}, {128, 128, 128}, {64, 320, 32},
           {512, 128, 128}, {301, 13, 7}}) {
    std::fprintf(stderr, "[gemm] %dx%dx%d ...\n", m, k, n);
    gemm_rows.push_back(BenchGemmShape(m, k, n));
  }

  // --- Preprocessing on the largest synthetic dataset ---------------------
  // COLLAB is the largest Table 1 dataset by average graph size (74
  // vertices); the default registry scale keeps this single-core friendly.
  datasets::DatasetOptions dopts;
  dopts.scale = 0.05;
  dopts.min_graphs = 120;
  auto ds = datasets::MakeDataset("COLLAB", dopts);
  // COLLAB's WL vocabulary is huge (dense ego graphs, degrees as labels);
  // cap the dense dimension via feature hashing so the [w*r, m] inputs fit
  // in memory — the paper pipeline uses the same escape hatch.
  const int kDenseDimCap = 512;
  if (!ds.ok()) {
    std::fprintf(stderr, "COLLAB: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  const graph::GraphDataset& dataset = ds.value();
  std::fprintf(stderr, "[prep] COLLAB stand-in: %d graphs, max |V| = %d\n",
               dataset.size(), dataset.MaxVertices());

  core::DeepMapConfig config;
  config.features.kind = kernels::FeatureMapKind::kWlSubtree;
  config.features.max_dense_dim = kDenseDimCap;
  kernels::DatasetVertexFeatures features =
      kernels::ComputeDatasetVertexFeatures(dataset, config.features);

  std::vector<nn::Tensor> legacy_inputs, serial_inputs, parallel_inputs;
  const double build_legacy_ms =
      TimeMs([&] { legacy_inputs = LegacyBuildInputs(dataset, features, config); }, 3);
  PinThreads("1");
  const double build_serial_ms = TimeMs(
      [&] { serial_inputs = core::BuildDeepMapInputs(dataset, features, config); },
      3);
  PinThreads("8");
  const double build_parallel_ms = TimeMs(
      [&] { parallel_inputs = core::BuildDeepMapInputs(dataset, features, config); },
      3);
  PinThreads("1");
  const bool build_identical = SameInputs(legacy_inputs, serial_inputs) &&
                               SameInputs(serial_inputs, parallel_inputs);

  std::vector<kernels::SparseFeatureMap> maps;
  maps.reserve(dataset.size());
  for (int g = 0; g < dataset.size(); ++g) {
    maps.push_back(features.GraphFeatureMap(g));
  }
  kernels::Matrix legacy_gram, serial_gram, parallel_gram;
  const double gram_legacy_ms =
      TimeMs([&] { legacy_gram = LegacyGram(maps, true); }, 3);
  PinThreads("1");
  const double gram_serial_ms =
      TimeMs([&] { serial_gram = kernels::GramMatrix(maps, true); }, 3);
  PinThreads("8");
  const double gram_parallel_ms =
      TimeMs([&] { parallel_gram = kernels::GramMatrix(maps, true); }, 3);
  PinThreads("1");
  const bool gram_identical = SameMatrix(legacy_gram, serial_gram) &&
                              SameMatrix(serial_gram, parallel_gram);

  // --- Epoch time (trajectory metric) -------------------------------------
  std::fprintf(stderr, "[epoch] training 3 epochs ...\n");
  config.train.epochs = 3;
  core::DeepMapModel model(features.dim(), std::max(1, dataset.MaxVertices()),
                           dataset.NumClasses(), config);
  std::vector<int> labels;
  labels.reserve(dataset.size());
  for (int g = 0; g < dataset.size(); ++g) labels.push_back(dataset.label(g));
  const auto train_start = Clock::now();
  nn::TrainClassifier(model, serial_inputs, labels, config.train);
  const double epoch_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - train_start)
          .count() /
      config.train.epochs;

  // --- JSON ----------------------------------------------------------------
  using bench::JsonValue;
  JsonValue doc = bench::BenchDoc("gemm_pipeline");
  doc.Obj("flags")
      .Set("dataset", "COLLAB")
      .Set("scale", dopts.scale)
      .Set("min_graphs", dopts.min_graphs)
      .Set("max_dense_dim", kDenseDimCap)
      .Set("train_epochs", config.train.epochs)
      .Set("parallel_threads", 8);
  doc.Obj("seeds")
      .Set("gemm_a", 21)
      .Set("gemm_b", 22)
      .Set("dataset", dopts.seed)
      .Set("legacy_inputs", config.seed + 0x5eed)
      .Set("train", config.train.seed);
  JsonValue& gemm = doc.Arr("gemm");
  for (const GemmRow& r : gemm_rows) {
    const double gflop = 2.0 * r.m * r.k * r.n / 1e9;
    gemm.Push(JsonValue::Object()
                  .Set("m", r.m)
                  .Set("k", r.k)
                  .Set("n", r.n)
                  .Set("naive_ms", JsonValue::Fixed(r.naive_ms, 3))
                  .Set("blocked_serial_ms", JsonValue::Fixed(r.serial_ms, 3))
                  .Set("blocked_8threads_ms", JsonValue::Fixed(r.parallel_ms, 3))
                  .Set("naive_gflops", JsonValue::Fixed(gflop / (r.naive_ms / 1e3), 2))
                  .Set("blocked_serial_gflops",
                       JsonValue::Fixed(gflop / (r.serial_ms / 1e3), 2))
                  .Set("blocked_8threads_gflops",
                       JsonValue::Fixed(gflop / (r.parallel_ms / 1e3), 2))
                  .Set("speedup_serial", JsonValue::Fixed(r.naive_ms / r.serial_ms, 2))
                  .Set("bit_identical", r.identical));
  }
  doc.Obj("preprocessing")
      .Set("dataset", "COLLAB")
      .Set("num_graphs", dataset.size())
      .Set("max_vertices", dataset.MaxVertices())
      .Set("build_inputs_legacy_ms", JsonValue::Fixed(build_legacy_ms, 1))
      .Set("build_inputs_serial_ms", JsonValue::Fixed(build_serial_ms, 1))
      .Set("build_inputs_8threads_ms", JsonValue::Fixed(build_parallel_ms, 1))
      .Set("build_inputs_speedup",
           JsonValue::Fixed(
               build_legacy_ms / std::min(build_serial_ms, build_parallel_ms), 2))
      .Set("build_inputs_bit_identical", build_identical)
      .Set("gram_legacy_ms", JsonValue::Fixed(gram_legacy_ms, 1))
      .Set("gram_serial_ms", JsonValue::Fixed(gram_serial_ms, 1))
      .Set("gram_8threads_ms", JsonValue::Fixed(gram_parallel_ms, 1))
      .Set("gram_speedup",
           JsonValue::Fixed(
               gram_legacy_ms / std::min(gram_serial_ms, gram_parallel_ms), 2))
      .Set("gram_bit_identical", gram_identical);
  doc.Obj("epoch").Set("deepmap_epoch_ms", JsonValue::Fixed(epoch_ms, 1));
  bench::WriteBenchFile(out_path, doc);
  for (const GemmRow& r : gemm_rows) {
    std::fprintf(stderr,
                 "gemm %dx%dx%d: naive %.2f ms, blocked %.2f ms (%.2fx), "
                 "identical=%d\n",
                 r.m, r.k, r.n, r.naive_ms, r.serial_ms,
                 r.naive_ms / r.serial_ms, r.identical ? 1 : 0);
  }
  std::fprintf(stderr,
               "build inputs: legacy %.1f ms -> %.1f ms (%.2fx), identical=%d\n",
               build_legacy_ms, build_serial_ms,
               build_legacy_ms / build_serial_ms, build_identical ? 1 : 0);
  std::fprintf(stderr, "gram: legacy %.1f ms -> %.1f ms (%.2fx), identical=%d\n",
               gram_legacy_ms, gram_serial_ms, gram_legacy_ms / gram_serial_ms,
               gram_identical ? 1 : 0);
  std::fprintf(stderr, "epoch: %.1f ms\n", epoch_ms);
  return 0;
}
