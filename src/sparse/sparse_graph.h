// Immutable sparse linear operator over a graph's vertex set — the CSR
// counterpart of the dense nn::GraphOp matrix, and the default backing of
// every GNN propagation in the library (GCN/GIN/diffusion/DGCNN/GraphSAGE
// via nn::GraphOp, GAT via the sparse::Pattern kernels).
//
// The operator matrix and its transpose are both materialized at
// construction (the backward pass applies S^T every step, so the transpose
// is on the training hot path; graphs are built once and applied many
// times). Apply/ApplyTranspose route through the SpMM kernel family and are
// bit-identical to the dense GraphOp loops; Compose/Power run as SpGEMM
// without ever materializing an O(n^2) intermediate.
#ifndef DEEPMAP_SPARSE_SPARSE_GRAPH_H_
#define DEEPMAP_SPARSE_SPARSE_GRAPH_H_

#include <cstdint>

#include "graph/graph.h"
#include "nn/tensor.h"
#include "sparse/csr.h"

namespace deepmap::sparse {

/// CSR graph operator with cached transpose. Immutable after construction.
class SparseGraph {
 public:
  /// Identity operator on n vertices.
  static SparseGraph Identity(int n);

  /// Symmetric GCN normalization D^-1/2 (A + I) D^-1/2.
  static SparseGraph GcnNorm(const graph::Graph& g);

  /// Row-normalized D_hat^-1 (A + I) (DGCNN's propagation rule).
  static SparseGraph RowNormAdj(const graph::Graph& g);

  /// Random-walk transition matrix D^-1 A (rows of isolated vertices are 0).
  static SparseGraph Transition(const graph::Graph& g);

  /// (1 + eps) I + A — GIN's injective sum aggregation.
  static SparseGraph SumAdj(const graph::Graph& g, double eps = 0.0);

  int n() const { return matrix_.rows(); }
  int64_t nnz() const { return matrix_.nnz(); }

  const SparseMatrix& matrix() const { return matrix_; }
  const SparseMatrix& transpose() const { return transpose_; }

  /// S x for x of shape [n, c]; returns [n, c].
  nn::Tensor Apply(const nn::Tensor& x) const;

  /// S^T g (the backward map), via the cached transpose.
  nn::Tensor ApplyTranspose(const nn::Tensor& g) const;

  /// Operator composition this * other, done sparsely (SpGEMM).
  SparseGraph Compose(const SparseGraph& other) const;

  /// S^h (h >= 0; h == 0 gives the identity), done sparsely.
  SparseGraph Power(int h) const;

  /// Matrix entry (i, j); 0.0 when not stored.
  double entry(int i, int j) const { return matrix_.At(i, j); }

  /// Heap bytes of the operator incl. the cached transpose.
  size_t MemoryBytes() const {
    return matrix_.MemoryBytes() + transpose_.MemoryBytes();
  }

 private:
  explicit SparseGraph(SparseMatrix m);

  SparseMatrix matrix_;
  SparseMatrix transpose_;
};

}  // namespace deepmap::sparse

#endif  // DEEPMAP_SPARSE_SPARSE_GRAPH_H_
