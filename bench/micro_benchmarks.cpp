// Google-benchmark microbenchmarks of the substrates DEEPMAP is built on:
// centrality, WL refinement, SP feature maps, graphlet sampling, receptive
// fields, Gram matrices, and the CNN forward/backward passes. These back the
// complexity claims in the paper's Section 4.2.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/deepmap.h"
#include "core/receptive_field.h"
#include "datasets/random_graphs.h"
#include "graph/algorithms.h"
#include "graph/centrality.h"
#include "kernels/graphlet.h"
#include "kernels/kernel_matrix.h"
#include "kernels/shortest_path.h"
#include "kernels/wl.h"
#include "nn/conv1d.h"
#include "nn/gemm.h"
#include "nn/softmax_xent.h"
#include "nn/tensor.h"

namespace {

using namespace deepmap;

graph::Graph MakeGraph(int n, double avg_degree, uint64_t seed) {
  Rng rng(seed);
  double p = avg_degree / std::max(1, n - 1);
  return datasets::ErdosRenyi(n, p, rng);
}

void BM_EigenvectorCentrality(benchmark::State& state) {
  graph::Graph g = MakeGraph(static_cast<int>(state.range(0)), 4.0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::EigenvectorCentrality(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EigenvectorCentrality)->Range(16, 256)->Complexity();

void BM_AllPairsShortestPaths(benchmark::State& state) {
  graph::Graph g = MakeGraph(static_cast<int>(state.range(0)), 4.0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::AllPairsShortestPaths(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AllPairsShortestPaths)->Range(16, 128)->Complexity();

void BM_WlRefinement(benchmark::State& state) {
  graph::Graph g = MakeGraph(static_cast<int>(state.range(0)), 4.0, 3);
  for (auto _ : state) {
    kernels::WlRefinement refinery(kernels::WlConfig{3});
    benchmark::DoNotOptimize(kernels::VertexWlFeatureMaps(g, refinery));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WlRefinement)->Range(16, 256)->Complexity();

void BM_SpVertexFeatureMaps(benchmark::State& state) {
  graph::Graph g = MakeGraph(static_cast<int>(state.range(0)), 4.0, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::VertexSpFeatureMaps(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpVertexFeatureMaps)->Range(16, 128)->Complexity();

void BM_GraphletSampling(benchmark::State& state) {
  graph::Graph g = MakeGraph(64, 6.0, 5);
  kernels::GraphletConfig config;
  config.k = static_cast<int>(state.range(0));
  config.samples_per_vertex = 20;
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::VertexGraphletFeatureMaps(g, config, rng));
  }
}
BENCHMARK(BM_GraphletSampling)->Arg(3)->Arg(4)->Arg(5);

void BM_ReceptiveField(benchmark::State& state) {
  graph::Graph g = MakeGraph(128, 6.0, 7);
  auto centrality = graph::EigenvectorCentrality(g);
  auto sequence = core::GenerateVertexSequence(g, centrality, g.NumVertices());
  int r = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::BuildFieldTable(g, sequence, r, centrality));
  }
}
BENCHMARK(BM_ReceptiveField)->Arg(3)->Arg(5)->Arg(10);

void BM_GramMatrix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  std::vector<kernels::SparseFeatureMap> maps(n);
  for (auto& m : maps) {
    for (int f = 0; f < 50; ++f) m.Add(rng.Index(500), 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::GramMatrix(maps, true));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GramMatrix)->Range(16, 128)->Complexity();

nn::Tensor RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t({rows, cols});
  for (int i = 0; i < t.NumElements(); ++i) {
    t.data()[i] = static_cast<float>(rng.Normal());
  }
  return t;
}

// Reference triple loop (the seed implementation of MatMul) for comparison
// against the blocked GEMM core.
void BM_GemmNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  nn::Tensor a = RandomMatrix(n, n, 11);
  nn::Tensor b = RandomMatrix(n, n, 12);
  for (auto _ : state) {
    nn::Tensor out({n, n});
    for (int i = 0; i < n; ++i) {
      for (int t = 0; t < n; ++t) {
        const float av = a.at(i, t);
        for (int j = 0; j < n; ++j) out.at(i, j) += av * b.at(t, j);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetComplexityN(n);
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmNaive)->Range(32, 256)->Complexity();

void BM_GemmBlocked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  nn::Tensor a = RandomMatrix(n, n, 11);
  nn::Tensor b = RandomMatrix(n, n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b).data());
  }
  state.SetComplexityN(n);
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmBlocked)->Range(32, 256)->Complexity();

void BM_Conv1DForward(benchmark::State& state) {
  Rng rng(9);
  const int length = static_cast<int>(state.range(0));
  nn::Conv1D conv(64, 32, 5, 5, rng);
  nn::Tensor x({length * 5, 64});
  for (int i = 0; i < x.NumElements(); ++i) {
    x.data()[i] = static_cast<float>(rng.Normal());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, false));
  }
  state.SetComplexityN(length);
}
BENCHMARK(BM_Conv1DForward)->Range(8, 128)->Complexity();

// Backward pass through the im2col-lowered convolution (dW and dX GEMMs).
void BM_Conv1DBackward(benchmark::State& state) {
  Rng rng(9);
  const int length = static_cast<int>(state.range(0));
  nn::Conv1D conv(64, 32, 5, 5, rng);
  nn::Tensor x({length * 5, 64});
  for (int i = 0; i < x.NumElements(); ++i) {
    x.data()[i] = static_cast<float>(rng.Normal());
  }
  nn::Tensor out = conv.Forward(x, true);
  nn::Tensor grad(out.shape());
  for (int i = 0; i < grad.NumElements(); ++i) {
    grad.data()[i] = static_cast<float>(rng.Normal());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Backward(grad).data());
  }
  state.SetComplexityN(length);
}
BENCHMARK(BM_Conv1DBackward)->Range(8, 128)->Complexity();

void BM_DeepMapForwardBackward(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  core::DeepMapConfig config;
  config.receptive_field_size = 5;
  core::DeepMapModel model(64, w, 2, config);
  Rng rng(10);
  nn::Tensor input({w * 5, 64});
  for (int i = 0; i < input.NumElements(); ++i) {
    input.data()[i] = static_cast<float>(rng.Normal());
  }
  for (auto _ : state) {
    nn::Tensor logits = model.Forward(input, true);
    nn::LossAndGrad lg = nn::SoftmaxCrossEntropy(logits, 0);
    model.Backward(lg.grad_logits);
    benchmark::DoNotOptimize(lg.loss);
  }
  state.SetComplexityN(w);
}
BENCHMARK(BM_DeepMapForwardBackward)->Range(8, 64)->Complexity();

}  // namespace

BENCHMARK_MAIN();
