// The DEEPMAP CNN input as the serve path carries it: sparse vertex rows
// plus a receptive-field table, instead of the dense [w*r, m] tensor.
//
// The dense input stacks, for each of the w sequence slots, the r feature
// rows of that slot's receptive field; a row is one vertex's densified
// substructure counts, or all zeros for a dummy position. Those rows are
// very sparse (a handful of nonzero columns out of m) and the same vertex
// row recurs in up to r fields. SparseInput stores each distinct row once,
// in CSR form, and a [w, r] table naming the row at every (slot, position):
//
//   dense[(slot * r + pos) * m + cols[k]] = vals[k]
//       for k in [row_ptr[i], row_ptr[i+1]), i = field[slot * r + pos] >= 0
//
// and zero everywhere else. ToDense() is exactly that scatter.
#ifndef DEEPMAP_SERVE_SPARSE_INPUT_H_
#define DEEPMAP_SERVE_SPARSE_INPUT_H_

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace deepmap::serve {

struct SparseInput {
  int w = 0;  // sequence length (slots)
  int r = 0;  // receptive field size (positions per slot)
  int m = 0;  // feature dimension (columns per row)
  /// CSR rows: row i holds entries [row_ptr[i], row_ptr[i+1]) of cols/vals.
  /// Columns ascend within a row; values are never 0.0f.
  std::vector<int32_t> row_ptr{0};
  std::vector<int32_t> cols;
  std::vector<float> vals;
  /// [w, r] row index per (slot, position); -1 marks a dummy (zero) row.
  std::vector<int32_t> field;

  int num_rows() const { return static_cast<int>(row_ptr.size()) - 1; }

  /// Appends (col, value) to the row under construction, dropping zeros.
  /// Columns must ascend within a row.
  void Push(int32_t col, float value) {
    if (value == 0.0f) return;
    cols.push_back(col);
    vals.push_back(value);
  }
  /// Closes the row under construction and returns its index.
  int32_t EndRow() {
    row_ptr.push_back(static_cast<int32_t>(cols.size()));
    return static_cast<int32_t>(row_ptr.size()) - 2;
  }

  /// The dense [w*r, m] tensor this input stands for.
  nn::Tensor ToDense() const;

  /// Sparse form of a dense [w*r, m] input, one row per (slot, position).
  static SparseInput FromDense(const nn::Tensor& input, int w, int r);
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_SPARSE_INPUT_H_
