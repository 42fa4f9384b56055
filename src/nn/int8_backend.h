// Int8 quantized inference backend with an AVX2 dot-product micro-kernel.
//
// Weights are quantized per output channel (row) with a symmetric scale
// s_o = maxabs(W[o]) / 127, rounded to nearest (ties to even via lrintf) and
// clamped to [-127, 127]; activations are quantized per input vector with
// the same symmetric scheme at forward time. Quantized values are stored
// widened to int16 (still 2x smaller than fp32) so the AVX2 kernel feeds
// madd_epi16 straight from memory. Each output accumulates the exact
// s8 x s8 integer dot in int32 — no saturation: |q| <= 127 bounds every
// pair-sum below 2^15 and realistic column counts keep the int32 total far
// from overflow — then applies the fp32 epilogue
//     y[o] (+|=) (s_o * s_x) * acc [+ bias[o]].
// The integer dot is exact in either kernel, and the epilogue is shared
// scalar code, so the scalar and AVX2 paths produce bit-identical floats;
// only wall time differs. Conv1's sparse entry (AccumulateSparse) reads a
// column-major pack of the same quantized weights and quantizes just the
// row's nonzeros: zeros neither raise max|x| nor add to an int32 dot, so it
// reproduces a dense window's result bit for bit. CPU dispatch happens once
// at construction via __builtin_cpu_supports — the AVX2 kernel is gated
// per-function with a target attribute so this file still builds and runs
// on plain x86-64.
//
// Accuracy: quantization error is bounded but real. Serving callers select
// this backend through serve::ModelRegistry, whose calibration guardrail
// compares int8 logits against fp32 and falls back when argmax disagreement
// exceeds budget. Do not use it where bit-exact logits are required.
#ifndef DEEPMAP_NN_INT8_BACKEND_H_
#define DEEPMAP_NN_INT8_BACKEND_H_

#include <cstdint>

#include "nn/inference_backend.h"

namespace deepmap::nn {

class Int8Backend final : public InferenceBackend {
 public:
  /// `force_scalar` pins the scalar kernel even on AVX2 hardware (tests use
  /// this to prove scalar/AVX2 bit-identity).
  explicit Int8Backend(bool force_scalar = false);

  /// True when this process can run the AVX2 kernel.
  static bool CpuHasAvx2();

  /// True when this instance dispatched to the AVX2 kernel.
  bool using_avx2() const { return using_avx2_; }

  const char* name() const override { return "int8"; }
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

 private:
  /// Fused int8 mat-vec: exact int32 dots of `rows` weight rows (stride
  /// apart) against one quantized activation vector, followed by the fp32
  /// epilogue y[o] = base + (scales[o] * sx) * sum with base = bias[o], or
  /// y[o] += ... when bias is null. The epilogue is element-wise, so the
  /// scalar and SIMD variants stay bit-identical.
  using MatVecFn = void (*)(const int16_t* w, size_t stride, int rows,
                            const int16_t* x, int cols, const float* scales,
                            float sx, const float* bias, float* y);
  /// Symmetric per-vector activation quantization; returns the scale.
  using QuantizeFn = float (*)(const float* x, int n, int16_t* out);

  MatVecFn mat_vec_;
  QuantizeFn quantize_;
  bool using_avx2_;
};

}  // namespace deepmap::nn

#endif  // DEEPMAP_NN_INT8_BACKEND_H_
