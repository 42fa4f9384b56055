#include "nn/inference_backend.h"

#include <cstring>

#include "common/check.h"
#include "nn/int8_backend.h"

// NOTE: this file is compiled with -ffp-contract=off (see src/CMakeLists.txt)
// so the fp32 reference chains below can never be FMA-contracted away from
// the training layers' rounding.

namespace deepmap::nn {

void InferenceBackend::Relu(float* x, int n) const {
  for (int i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

namespace {

/// fp32 copy of the weight matrix, row-major (Pack) or column-major
/// (PackSparse).
class Fp32Packed final : public PackedWeights {
 public:
  Fp32Packed(const Tensor& w, bool column_major)
      : PackedWeights(w.dim(0), w.dim(1)),
        data_(w.data(), w.data() + w.NumElements()) {
    if (!column_major) return;
    for (int o = 0; o < rows(); ++o) {
      for (int c = 0; c < cols(); ++c) {
        data_[static_cast<size_t>(c) * rows() + o] =
            w.data()[static_cast<size_t>(o) * cols() + c];
      }
    }
  }

  /// Row o of a row-major pack.
  const float* row(int o) const {
    return data_.data() + static_cast<size_t>(o) * cols();
  }
  /// Column c of a column-major pack.
  const float* column(int c) const {
    return data_.data() + static_cast<size_t>(c) * rows();
  }
  size_t MemoryBytes() const override { return data_.size() * sizeof(float); }

 private:
  std::vector<float> data_;
};

}  // namespace

std::unique_ptr<PackedWeights> Fp32RefBackend::Pack(const Tensor& w) const {
  DEEPMAP_CHECK_EQ(w.rank(), 2);
  return std::make_unique<Fp32Packed>(w, /*column_major=*/false);
}

std::unique_ptr<PackedWeights> Fp32RefBackend::PackSparse(
    const Tensor& w) const {
  DEEPMAP_CHECK_EQ(w.rank(), 2);
  return std::make_unique<Fp32Packed>(w, /*column_major=*/true);
}

void Fp32RefBackend::AccumulateSparse(const PackedWeights& w, int col0,
                                      const int32_t* cols, const float* vals,
                                      int nnz, float* y) const {
  const auto& p = static_cast<const Fp32Packed&>(w);
  const int rows = p.rows();
  // Term k is added to every output before term k + 1, so each output's
  // chain runs in ascending k; the outputs are independent chains, and the
  // contiguous o loop vectorizes without reassociating any of them.
  for (int k = 0; k < nnz; ++k) {
    const float* __restrict wc = p.column(col0 + cols[k]);
    const float x = vals[k];
    float* __restrict out = y;
    for (int o = 0; o < rows; ++o) out[o] += wc[o] * x;
  }
}

void Fp32RefBackend::ConvForward(const PackedWeights& w, const float* bias,
                                 const float* x, float* y) const {
  const auto& p = static_cast<const Fp32Packed&>(w);
  const int in_channels = p.cols();
  for (int o = 0; o < p.rows(); ++o) {
    float sum = bias[o];
    const float* wo = p.row(o);
    for (int i = 0; i < in_channels; ++i) sum += wo[i] * x[i];
    y[o] = sum;
  }
}

void Fp32RefBackend::DenseForward(const PackedWeights& w, const float* bias,
                                  const float* x, float* y) const {
  const auto& p = static_cast<const Fp32Packed&>(w);
  const int in_features = p.cols();
  for (int o = 0; o < p.rows(); ++o) {
    float sum = 0.0f;
    const float* wo = p.row(o);
    for (int t = 0; t < in_features; ++t) sum += x[t] * wo[t];
    y[o] = sum + bias[o];
  }
}

const InferenceBackend& Fp32Backend() {
  static const Fp32RefBackend* kInstance = new Fp32RefBackend();
  return *kInstance;
}

std::vector<std::string> InferenceBackendNames() { return {"fp32", "int8"}; }

StatusOr<std::unique_ptr<InferenceBackend>> MakeInferenceBackend(
    const std::string& name) {
  if (name == "fp32") {
    return StatusOr<std::unique_ptr<InferenceBackend>>(
        std::make_unique<Fp32RefBackend>());
  }
  if (name == "int8") {
    return StatusOr<std::unique_ptr<InferenceBackend>>(
        std::make_unique<Int8Backend>());
  }
  std::string known;
  for (const std::string& n : InferenceBackendNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::InvalidArgument("unknown inference backend '" + name +
                                 "'; known backends: " + known);
}

}  // namespace deepmap::nn
