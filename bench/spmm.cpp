// Benchmarks the sparse graph substrate (CSR + SpMM, src/sparse/) against
// the legacy dense GraphOp backend, and writes the results as JSON
// (default: BENCH_spmm.json in the working directory; pass a path as
// argv[1] to override).
//
// One row per (generator, n, density): wall time of a GcnNorm propagation
// S X for X [n, 32] under the dense backend vs the sparse backend at 1 and
// 8 threads, propagations/sec, and operator bytes per graph (dense n^2
// doubles vs the CSR arrays incl. the cached transpose). Every sparse
// result is byte-compared against the dense reference before timing is
// reported ("bit_identical").
//
// The 10^4-vertex R-MAT row is the acceptance gate: the sparse path must
// beat dense by >= 10x in both wall clock and operator memory; the binary
// exits nonzero when either bound is violated (same contract style as
// obs_overhead).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "datasets/random_graphs.h"
#include "graph/graph.h"
#include "nn/graph_conv.h"
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

bool SameBits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.NumElements())) == 0;
}

struct Row {
  std::string generator;
  int n = 0;
  int64_t edges = 0;
  int64_t nnz = 0;
  double dense_ms = 0, sparse_ms = 0, sparse8_ms = 0;
  size_t dense_bytes = 0, sparse_bytes = 0;
  bool identical = false;
  bool acceptance = false;  // the >= 10x gate applies to this row
};

/// Columns of the propagated feature matrix X.
constexpr int kFeatureColumns = 32;

Row BenchGraph(const std::string& generator, const graph::Graph& g,
               bool acceptance) {
  const int n = g.NumVertices();
  const int c = kFeatureColumns;
  Rng rng(0xFEA7u + static_cast<uint64_t>(n));
  nn::Tensor x({n, c});
  for (int i = 0; i < x.NumElements(); ++i) {
    x.data()[i] = static_cast<float>(rng.Normal());
  }

  nn::GraphOp::SetDefaultBackend(nn::GraphOp::Backend::kDense);
  nn::GraphOp dense = nn::GraphOp::GcnNorm(g);
  nn::GraphOp::SetDefaultBackend(nn::GraphOp::Backend::kSparse);
  nn::GraphOp sparse = nn::GraphOp::GcnNorm(g);

  const int reps = n >= 10000 ? 3 : 10;
  Row row;
  row.generator = generator;
  row.n = n;
  row.edges = g.NumEdges();
  row.nnz = sparse.nnz();
  row.acceptance = acceptance;
  nn::Tensor dense_out, sparse_out, sparse8_out;
  PinThreads("1");
  row.dense_ms = TimeMs([&] { dense_out = dense.Apply(x); }, reps);
  row.sparse_ms = TimeMs([&] { sparse_out = sparse.Apply(x); }, reps);
  PinThreads("8");
  row.sparse8_ms = TimeMs([&] { sparse8_out = sparse.Apply(x); }, reps);
  PinThreads("1");
  row.identical =
      SameBits(dense_out, sparse_out) && SameBits(sparse_out, sparse8_out);
  row.dense_bytes = static_cast<size_t>(n) * static_cast<size_t>(n) *
                    sizeof(double);
  row.sparse_bytes = sparse.sparse().MemoryBytes();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_spmm.json";
  PinThreads("1");

  std::vector<Row> rows;
  Rng rng(907);
  // Density sweep at n = 10^2 and 10^3 (Erdos-Renyi), then the power-law
  // regime the substrate exists for: R-MAT at 10^3 and the 10^4 acceptance
  // graph (avg degree ~16, the web-graph shape from the R-MAT paper).
  {
    std::fprintf(stderr, "[spmm] n=100 sweep ...\n");
    rows.push_back(BenchGraph("erdos_renyi_p0.08",
                              datasets::ErdosRenyi(100, 0.08, rng), false));
    rows.push_back(BenchGraph("erdos_renyi_p0.30",
                              datasets::ErdosRenyi(100, 0.30, rng), false));
  }
  {
    std::fprintf(stderr, "[spmm] n=1000 sweep ...\n");
    rows.push_back(BenchGraph("erdos_renyi_p0.008",
                              datasets::ErdosRenyi(1000, 0.008, rng), false));
    rows.push_back(BenchGraph("erdos_renyi_p0.05",
                              datasets::ErdosRenyi(1000, 0.05, rng), false));
    rows.push_back(
        BenchGraph("rmat_epv8", datasets::RMat(1000, 8, rng), false));
  }
  {
    std::fprintf(stderr, "[spmm] n=10000 acceptance graph ...\n");
    rows.push_back(
        BenchGraph("rmat_epv8", datasets::RMat(10000, 8, rng), true));
  }

  bool all_identical = true;
  bool acceptance_ok = true;
  using bench::JsonValue;
  JsonValue doc = bench::BenchDoc("spmm");
  doc.Obj("flags")
      .Set("feature_columns", kFeatureColumns)
      .Set("parallel_threads", 8);
  doc.Obj("seeds").Set("graph_sweep", 907).Set("features", int64_t{0xFEA7});
  JsonValue& spmm = doc.Arr("spmm");
  for (const Row& r : rows) {
    const double speedup = r.dense_ms / r.sparse_ms;
    const double mem_ratio = static_cast<double>(r.dense_bytes) /
                             static_cast<double>(r.sparse_bytes);
    all_identical = all_identical && r.identical;
    if (r.acceptance && (speedup < 10.0 || mem_ratio < 10.0)) {
      acceptance_ok = false;
    }
    spmm.Push(JsonValue::Object()
                  .Set("generator", r.generator)
                  .Set("n", r.n)
                  .Set("edges", r.edges)
                  .Set("nnz", r.nnz)
                  .Set("dense_ms", JsonValue::Fixed(r.dense_ms, 3))
                  .Set("sparse_serial_ms", JsonValue::Fixed(r.sparse_ms, 3))
                  .Set("sparse_8threads_ms", JsonValue::Fixed(r.sparse8_ms, 3))
                  .Set("speedup", JsonValue::Fixed(speedup, 2))
                  .Set("graphs_per_sec_dense",
                       JsonValue::Fixed(1000.0 / r.dense_ms, 1))
                  .Set("graphs_per_sec_sparse",
                       JsonValue::Fixed(1000.0 / r.sparse_ms, 1))
                  .Set("dense_bytes_per_graph", r.dense_bytes)
                  .Set("sparse_bytes_per_graph", r.sparse_bytes)
                  .Set("memory_ratio", JsonValue::Fixed(mem_ratio, 1))
                  .Set("bit_identical", r.identical)
                  .Set("acceptance_row", r.acceptance));
    std::fprintf(stderr,
                 "%s n=%d: dense %.3f ms, sparse %.3f ms (%.1fx), "
                 "mem %.1fx, identical=%d\n",
                 r.generator.c_str(), r.n, r.dense_ms, r.sparse_ms, speedup,
                 mem_ratio, r.identical ? 1 : 0);
  }
  doc.Set("all_bit_identical", all_identical);
  doc.Set("acceptance_10x_wall_and_memory", acceptance_ok);
  bench::WriteBenchFile(out_path, doc);

  if (!all_identical || !acceptance_ok) {
    std::fprintf(stderr,
                 "FAIL: identical=%d acceptance_10x=%d\n",
                 all_identical ? 1 : 0, acceptance_ok ? 1 : 0);
    return 1;
  }
  return 0;
}
