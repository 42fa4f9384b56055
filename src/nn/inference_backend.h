// Pluggable execution backends for the serving-time forward pass.
//
// The logical forward graph of a DEEPMAP network (conv stack -> readout ->
// dense head) is fixed at training time, but *how* each matrix-vector
// product executes is a deployment decision: exact fp32 for bit-identical
// parity with the training stack, or a quantized SIMD kernel that trades a
// bounded amount of accuracy for throughput. InferenceBackend is that seam:
// serve::CompiledModel packs every weight matrix once (conv1 through
// PackSparse, the rest through Pack) and then drives the per-slot forward
// pass exclusively through the backend's AccumulateSparse / ConvForward /
// DenseForward / Relu primitives.
//
// Conv1 consumes sparse input: one receptive-field position is a vertex row
// with a few nonzero (column, value) pairs out of m, so AccumulateSparse
// sums just those columns of the [c1, r*m] kernel. Both shipped backends
// pack that kernel column-major, so one input column's weights for every
// output channel are contiguous and the inner loop runs over outputs.
//
// Contracts:
//   - Fp32RefBackend (the default, reachable via Fp32Backend()) reproduces
//     the training layers' accumulation order exactly: one ascending-index
//     accumulator chain per output element, bias-first for convolutions,
//     bias-last for dense layers. AccumulateSparse keeps each output's chain
//     in ascending input-column order and only omits the products of zero
//     inputs; for finite weights those are +-0.0 and leave the running sum
//     unchanged unless it is exactly -0.0 (the same assumption the dense
//     path's zero-row skip always made). Routed through it, compiled logits
//     stay bit-identical to DeepMapModel::Forward — the perf_equiv/serve
//     suites pin this.
//   - Other backends (nn/int8_backend.h) may round differently; callers that
//     need an accuracy guarantee wrap them in a guardrail (see
//     serve::ModelRegistry) instead of assuming bit-equality.
//   - Backends are immutable after construction and thread-safe: one packed
//     weight set may be shared by any number of concurrent forward passes.
#ifndef DEEPMAP_NN_INFERENCE_BACKEND_H_
#define DEEPMAP_NN_INFERENCE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

namespace deepmap::nn {

/// Backend-specific prepared form of one row-major [rows, cols] weight
/// matrix. Opaque to callers; produced by InferenceBackend::Pack and only
/// meaningful to the backend that packed it.
class PackedWeights {
 public:
  PackedWeights(int rows, int cols) : rows_(rows), cols_(cols) {}
  virtual ~PackedWeights() = default;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Resident bytes of the packed representation (bench/inspection).
  virtual size_t MemoryBytes() const = 0;

 private:
  int rows_;
  int cols_;
};

/// Kernel-execution strategy for the inference forward pass.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  /// Stable identifier ("fp32", "int8") used for registry selection,
  /// persistence tags, and bench labels.
  virtual const char* name() const = 0;

  /// Packs a rank-2 row-major weight tensor for ConvForward / DenseForward.
  virtual std::unique_ptr<PackedWeights> Pack(const Tensor& weights) const = 0;

  /// Packs a rank-2 row-major weight tensor for AccumulateSparse (and only
  /// for it: the layout differs from Pack's).
  virtual std::unique_ptr<PackedWeights> PackSparse(
      const Tensor& weights) const = 0;

  /// y[o] += sum_{k in [0, nnz)} W[o][col0 + cols[k]] * vals[k] for every
  /// output row o, adding the terms in ascending k. `cols` ascend; `vals`
  /// may hold zeros, which are multiplied like any other value. Conv1 calls
  /// this once per nonzero receptive-field position of a slot, with col0 =
  /// position * m and that vertex row's nonzeros, after filling y with the
  /// bias.
  virtual void AccumulateSparse(const PackedWeights& w, int col0,
                                const int32_t* cols, const float* vals,
                                int nnz, float* y) const = 0;

  /// Pointwise convolution: y[o] = bias[o] + dot(W[o], x) with the bias
  /// folded in *first*, matching nn::Conv1D's accumulation order.
  virtual void ConvForward(const PackedWeights& w, const float* bias,
                           const float* x, float* y) const = 0;

  /// Dense layer: y[o] = dot(W[o], x) + bias[o] with the bias added *last*,
  /// matching nn::Dense's accumulation order.
  virtual void DenseForward(const PackedWeights& w, const float* bias,
                            const float* x, float* y) const = 0;

  /// In-place ReLU mirroring nn::Relu: strictly-negative values clamp to
  /// 0.0f; -0.0f passes through unchanged.
  virtual void Relu(float* x, int n) const;
};

/// Exact fp32 reference backend: the training layers' loops, verbatim.
class Fp32RefBackend final : public InferenceBackend {
 public:
  const char* name() const override { return "fp32"; }
  std::unique_ptr<PackedWeights> Pack(const Tensor& weights) const override;
  std::unique_ptr<PackedWeights> PackSparse(
      const Tensor& weights) const override;
  void AccumulateSparse(const PackedWeights& w, int col0, const int32_t* cols,
                        const float* vals, int nnz,
                        float* y) const override;
  void ConvForward(const PackedWeights& w, const float* bias, const float* x,
                   float* y) const override;
  void DenseForward(const PackedWeights& w, const float* bias, const float* x,
                    float* y) const override;
};

/// Process-wide immutable fp32 reference backend; the default when no
/// backend is supplied and the fallback target of accuracy guardrails.
const InferenceBackend& Fp32Backend();

/// Registered backend names, in preference-documentation order.
std::vector<std::string> InferenceBackendNames();

/// Constructs a backend by name ("fp32" or "int8"); InvalidArgument (naming
/// the known backends) for anything else.
StatusOr<std::unique_ptr<InferenceBackend>> MakeInferenceBackend(
    const std::string& name);

}  // namespace deepmap::nn

#endif  // DEEPMAP_NN_INFERENCE_BACKEND_H_
