// Dense float tensor (row-major), rank 1-3. The numeric container for the
// from-scratch neural-network substrate (the paper trained with Keras; this
// environment has no GPU/BLAS, so everything is explicit loops over Tensor).
#ifndef DEEPMAP_NN_TENSOR_H_
#define DEEPMAP_NN_TENSOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"

namespace deepmap::nn {

/// Row-major dense float tensor with small-rank shape.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape (all dims > 0).
  explicit Tensor(std::vector<int> shape);

  // Copies are counted (see CopyCount) so hot paths can assert they move;
  // declaring the copy pair suppresses the implicit moves, so restate them.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  /// Tensor copy constructions/assignments process-wide since the last
  /// ResetCopyCount(). Lets tests assert a code path performs no hidden
  /// deep copies (e.g. the serving path from submit to reply).
  static long CopyCount();
  static void ResetCopyCount();

  /// Builds a tensor from flat data (size must match the shape's volume).
  static Tensor FromVector(std::vector<int> shape, std::vector<float> data);

  /// 1-D convenience constructor.
  static Tensor FromFlat(std::vector<float> data);

  int rank() const { return static_cast<int>(shape_.size()); }
  const std::vector<int>& shape() const { return shape_; }
  int dim(int i) const;
  int NumElements() const { return static_cast<int>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  const std::vector<float>& flat() const { return data_; }

  /// Element accessors with bounds checks in debug-style CHECKs.
  float& at(int i);
  float at(int i) const;
  float& at(int i, int j);
  float at(int i, int j) const;
  float& at(int i, int j, int k);
  float at(int i, int j, int k) const;

  void Fill(float value);
  void Zero() { Fill(0.0f); }

  /// Reinterprets the flat data under a new shape of equal volume.
  Tensor Reshaped(std::vector<int> new_shape) const;

  /// this += other (shapes must match).
  void Add(const Tensor& other);

  /// this += scale * other.
  void AddScaled(const Tensor& other, float scale);

  /// Multiplies every element by `scale`.
  void Scale(float scale);

  /// Index of the largest element (flat); ties resolve to the first.
  int ArgMax() const;

  /// Largest absolute element value (0 for empty tensors).
  float MaxAbs() const;

  /// "Tensor[2x3]" style description.
  std::string ShapeString() const;

 private:
  std::vector<int> shape_;
  std::vector<float> data_;
};

/// Row-major matrix product: out[i][j] = sum_k a[i][k] b[k][j].
/// a is [m, k], b is [k, n], result [m, n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// a^T b where a is [k, m], b is [k, n]; result [m, n].
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// a b^T where a is [m, k], b is [n, k]; result [m, n].
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

}  // namespace deepmap::nn

#endif  // DEEPMAP_NN_TENSOR_H_
