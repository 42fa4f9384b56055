#include "sparse/sparse_graph.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sparse/spmm.h"

namespace deepmap::sparse {
namespace {

// Emits row v of an (A + weighted I)-shaped operator in ascending column
// order: the self entry interleaved into the sorted neighbor list. Values
// are computed with the exact double expressions of the dense constructions
// so the stored operator matches the dense matrix entry-for-entry.
template <typename DiagFn, typename OffFn>
void EmitRow(const graph::Graph& g, graph::Vertex v, bool with_diag,
             DiagFn diag, OffFn off, std::vector<Triplet>* out) {
  bool diag_emitted = !with_diag;
  for (graph::Vertex u : g.Neighbors(v)) {
    if (!diag_emitted && v < u) {
      out->push_back({v, v, diag(v)});
      diag_emitted = true;
    }
    out->push_back({v, u, off(v, u)});
  }
  if (!diag_emitted) out->push_back({v, v, diag(v)});
}

template <typename DiagFn, typename OffFn>
SparseMatrix BuildAdjShaped(const graph::Graph& g, bool with_diag, DiagFn diag,
                            OffFn off) {
  const int n = g.NumVertices();
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(with_diag ? n : 0) +
                   2 * static_cast<size_t>(g.NumEdges()));
  for (graph::Vertex v = 0; v < n; ++v) {
    EmitRow(g, v, with_diag, diag, off, &triplets);
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

}  // namespace

SparseGraph::SparseGraph(SparseMatrix m) : matrix_(std::move(m)) {
  DEEPMAP_CHECK_EQ(matrix_.rows(), matrix_.cols());
  transpose_ = matrix_.Transpose();
}

SparseGraph SparseGraph::Identity(int n) {
  return SparseGraph(SparseMatrix::Identity(n));
}

SparseGraph SparseGraph::GcnNorm(const graph::Graph& g) {
  const int n = g.NumVertices();
  std::vector<double> inv_sqrt_deg(n);
  for (int v = 0; v < n; ++v) {
    inv_sqrt_deg[v] = 1.0 / std::sqrt(static_cast<double>(g.Degree(v) + 1));
  }
  return SparseGraph(BuildAdjShaped(
      g, /*with_diag=*/true,
      [&](graph::Vertex v) { return inv_sqrt_deg[v] * inv_sqrt_deg[v]; },
      [&](graph::Vertex v, graph::Vertex u) {
        return inv_sqrt_deg[v] * inv_sqrt_deg[u];
      }));
}

SparseGraph SparseGraph::RowNormAdj(const graph::Graph& g) {
  return SparseGraph(BuildAdjShaped(
      g, /*with_diag=*/true,
      [&](graph::Vertex v) {
        return 1.0 / static_cast<double>(g.Degree(v) + 1);
      },
      [&](graph::Vertex v, graph::Vertex u) {
        return 1.0 / static_cast<double>(g.Degree(v) + 1);
      }));
}

SparseGraph SparseGraph::Transition(const graph::Graph& g) {
  return SparseGraph(BuildAdjShaped(
      g, /*with_diag=*/false, [](graph::Vertex) { return 0.0; },
      [&](graph::Vertex v, graph::Vertex u) {
        return 1.0 / static_cast<double>(g.Degree(v));
      }));
}

SparseGraph SparseGraph::SumAdj(const graph::Graph& g, double eps) {
  return SparseGraph(BuildAdjShaped(
      g, /*with_diag=*/true, [&](graph::Vertex) { return 1.0 + eps; },
      [](graph::Vertex, graph::Vertex) { return 1.0; }));
}

nn::Tensor SparseGraph::Apply(const nn::Tensor& x) const {
  DEEPMAP_CHECK_EQ(x.rank(), 2);
  DEEPMAP_CHECK_EQ(x.dim(0), n());
  return Spmm(matrix_, x);
}

nn::Tensor SparseGraph::ApplyTranspose(const nn::Tensor& g) const {
  DEEPMAP_CHECK_EQ(g.rank(), 2);
  DEEPMAP_CHECK_EQ(g.dim(0), n());
  return Spmm(transpose_, g);
}

SparseGraph SparseGraph::Compose(const SparseGraph& other) const {
  DEEPMAP_CHECK_EQ(n(), other.n());
  return SparseGraph(matrix_.Multiply(other.matrix_));
}

SparseGraph SparseGraph::Power(int h) const {
  DEEPMAP_CHECK_GE(h, 0);
  SparseMatrix result = SparseMatrix::Identity(n());
  for (int i = 0; i < h; ++i) result = result.Multiply(matrix_);
  return SparseGraph(std::move(result));
}

}  // namespace deepmap::sparse
