#include "serve/sparse_input.h"

#include "common/check.h"

namespace deepmap::serve {

nn::Tensor SparseInput::ToDense() const {
  DEEPMAP_CHECK_EQ(field.size(), static_cast<size_t>(w) * r);
  nn::Tensor dense({w * r, m});
  for (size_t f = 0; f < field.size(); ++f) {
    const int32_t row = field[f];
    if (row < 0) continue;
    float* dst = dense.data() + f * static_cast<size_t>(m);
    for (int32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      dst[cols[k]] = vals[k];
    }
  }
  return dense;
}

SparseInput SparseInput::FromDense(const nn::Tensor& input, int w, int r) {
  DEEPMAP_CHECK_EQ(input.rank(), 2);
  DEEPMAP_CHECK_EQ(input.dim(0), w * r);
  SparseInput sparse;
  sparse.w = w;
  sparse.r = r;
  sparse.m = input.dim(1);
  sparse.field.resize(static_cast<size_t>(w) * r);
  for (int f = 0; f < w * r; ++f) {
    const float* row = input.data() + static_cast<size_t>(f) * sparse.m;
    for (int c = 0; c < sparse.m; ++c) sparse.Push(c, row[c]);
    sparse.field[static_cast<size_t>(f)] = sparse.EndRow();
  }
  return sparse;
}

}  // namespace deepmap::serve
