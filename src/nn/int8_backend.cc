#include "nn/int8_backend.h"

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"

namespace deepmap::nn {
namespace {

/// Quantized weights plus one symmetric fp32 scale per output row, stored
/// row-major (Pack) or column-major (PackSparse). Values are int8-range
/// ([-127, 127]) but stored widened to int16 so the AVX2 kernel feeds
/// madd_epi16 straight from 32-byte loads with no sign-extension step in the
/// hot loop — trading 2 bytes/weight (still 2x smaller than fp32) for a
/// meaningfully shorter inner loop.
class Int8Packed final : public PackedWeights {
 public:
  Int8Packed(const Tensor& w, bool column_major)
      : PackedWeights(w.dim(0), w.dim(1)) {
    const int rows = this->rows();
    const int cols = this->cols();
    // 16 lanes of zeroed slack let the AVX2 kernel read one full vector past
    // the last row's window: those lanes meet zero-padded activations, so
    // they contribute exactly 0 to the int32 sums.
    q_.resize(static_cast<size_t>(rows) * cols + 16);
    scales_.resize(static_cast<size_t>(rows));
    const float* src = w.data();
    for (int o = 0; o < rows; ++o) {
      const float* wo = src + static_cast<size_t>(o) * cols;
      float maxabs = 0.0f;
      for (int c = 0; c < cols; ++c) {
        const float a = std::fabs(wo[c]);
        if (a > maxabs) maxabs = a;
      }
      int16_t* qo = q_.data() + static_cast<size_t>(o) * cols;
      if (maxabs == 0.0f) {
        // Zero row: scale 0 and zeroed quants, so the fused epilogue's
        // (0 * sx) * 0 contributes exactly +0.0f.
        scales_[static_cast<size_t>(o)] = 0.0f;
        std::memset(qo, 0, static_cast<size_t>(cols) * sizeof(int16_t));
        continue;
      }
      scales_[static_cast<size_t>(o)] = maxabs / 127.0f;
      const float inv = 127.0f / maxabs;
      for (int c = 0; c < cols; ++c) {
        long v = std::lrintf(wo[c] * inv);
        if (v > 127) v = 127;
        if (v < -127) v = -127;
        qo[c] = static_cast<int16_t>(v);
      }
    }
    if (column_major) {
      const std::vector<int16_t> row_major = q_;
      for (int o = 0; o < rows; ++o) {
        for (int c = 0; c < cols; ++c) {
          q_[static_cast<size_t>(c) * rows + o] =
              row_major[static_cast<size_t>(o) * cols + c];
        }
      }
    }
  }

  const int16_t* data() const { return q_.data(); }
  const float* scales() const { return scales_.data(); }
  size_t MemoryBytes() const override {
    return q_.size() * sizeof(int16_t) + scales_.size() * sizeof(float);
  }

 private:
  std::vector<int16_t> q_;
  std::vector<float> scales_;
};

/// Rounds a column count up to the vector width the AVX2 kernel consumes.
constexpr int RoundUp16(int n) { return (n + 15) & ~15; }

/// Quantizes x[0, n) symmetrically to int8-range values (widened to int16,
/// matching the weight layout); returns the scale (0 when the vector is all
/// zeros, in which case `out` is zero-filled). Lanes [n, RoundUp16(n)) are
/// zeroed so the mat-vec kernel can run whole 16-lane steps with no scalar
/// column tail. lrintf under the default rounding mode rounds to nearest,
/// ties to even — the same rule the AVX2 cvtps2dq path uses, which is what
/// keeps the two quantizers bit-identical on finite inputs.
float QuantizeActivationsScalar(const float* x, int n, int16_t* out) {
  float maxabs = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > maxabs) maxabs = a;
  }
  for (int i = n; i < RoundUp16(n); ++i) out[i] = 0;
  if (maxabs == 0.0f) {
    std::memset(out, 0, static_cast<size_t>(n) * sizeof(int16_t));
    return 0.0f;
  }
  const float scale = maxabs / 127.0f;
  const float inv = 127.0f / maxabs;
  for (int i = 0; i < n; ++i) {
    long v = std::lrintf(x[i] * inv);
    if (v > 127) v = 127;
    if (v < -127) v = -127;
    out[i] = static_cast<int16_t>(v);
  }
  return scale;
}

/// Per-thread scratch so forward passes stay allocation-free after warm-up.
/// Sized to RoundUp16(n) for the quantizers' zero padding.
int16_t* ActivationScratch(int n) {
  static thread_local std::vector<int16_t> buf;
  const int want = RoundUp16(n);
  if (static_cast<int>(buf.size()) < want) {
    buf.resize(static_cast<size_t>(want));
  }
  return buf.data();
}

/// Per-thread int32 accumulators for the sparse conv1 kernel.
int32_t* AccumulatorScratch(int n) {
  static thread_local std::vector<int32_t> buf;
  if (static_cast<int>(buf.size()) < n) buf.resize(static_cast<size_t>(n));
  return buf.data();
}

/// Fused mat-vec reference kernel. The int32 dot is exact in any evaluation
/// order and the epilogue is element-wise fp32, so the scalar and AVX2
/// kernels produce bit-identical outputs; only wall time differs.
void MatVecScalar(const int16_t* w, size_t stride, int rows, const int16_t* x,
                  int cols, const float* scales, float sx, const float* bias,
                  float* y) {
  for (int o = 0; o < rows; ++o) {
    const int16_t* wo = w + static_cast<size_t>(o) * stride;
    int32_t sum = 0;
    for (int c = 0; c < cols; ++c) {
      sum += static_cast<int32_t>(wo[c]) * static_cast<int32_t>(x[c]);
    }
    const float contrib = (scales[o] * sx) * static_cast<float>(sum);
    y[o] = (bias ? bias[o] : y[o]) + contrib;
  }
}

#if defined(__x86_64__) || defined(_M_X64)
// |q| <= 127, so each madd pair-sum is <= 2*127*127 < 2^15 (no s16
// saturation) and the int32 lanes stay exact to ~65k-element rows —
// orders of magnitude beyond any DEEPMAP layer width.
//
// Rows are processed four at a time so each 16-wide activation load is
// reused across four weight rows, the four accumulators collapse in one
// hadd tree, and the fp32 epilogue runs 4-wide on the sums while they are
// still in-register. On the narrow DEEPMAP layers (8-128 columns) this
// amortization is what puts the kernel ahead of the fp32 reference; a
// dot-at-a-time variant loses its advantage to per-row reduction overhead.
//
// There is no scalar column tail: activations are zero-padded to a 16-lane
// multiple and the packed weights carry 16 lanes of slack, so the last step
// may read up to 15 weight lanes past the logical window — every such lane
// is multiplied by a zero activation and adds exactly 0 to the int32 sums.
// Every float op is element-wise (cvtdq2ps is exact for |sum| < 2^24), so
// the result matches MatVecScalar bit-for-bit.
__attribute__((target("avx2"))) void MatVecAvx2(const int16_t* w,
                                                size_t stride, int rows,
                                                const int16_t* x, int cols,
                                                const float* scales, float sx,
                                                const float* bias, float* y) {
  const __m128 vsx = _mm_set1_ps(sx);
  int o = 0;
  for (; o + 4 <= rows; o += 4) {
    const int16_t* w0 = w + static_cast<size_t>(o) * stride;
    const int16_t* w1 = w0 + stride;
    const int16_t* w2 = w1 + stride;
    const int16_t* w3 = w2 + stride;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    for (int c = 0; c < cols; c += 16) {
      const __m256i xv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + c));
      acc0 = _mm256_add_epi32(
          acc0, _mm256_madd_epi16(_mm256_loadu_si256(
                                      reinterpret_cast<const __m256i*>(w0 + c)),
                                  xv));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_madd_epi16(_mm256_loadu_si256(
                                      reinterpret_cast<const __m256i*>(w1 + c)),
                                  xv));
      acc2 = _mm256_add_epi32(
          acc2, _mm256_madd_epi16(_mm256_loadu_si256(
                                      reinterpret_cast<const __m256i*>(w2 + c)),
                                  xv));
      acc3 = _mm256_add_epi32(
          acc3, _mm256_madd_epi16(_mm256_loadu_si256(
                                      reinterpret_cast<const __m256i*>(w3 + c)),
                                  xv));
    }
    // hadd tree: two levels of pairwise horizontal adds leave lane k of
    // (lo128 + hi128) holding the full sum of acc_k.
    const __m256i t01 = _mm256_hadd_epi32(acc0, acc1);
    const __m256i t23 = _mm256_hadd_epi32(acc2, acc3);
    const __m256i t = _mm256_hadd_epi32(t01, t23);
    const __m128i sums4 = _mm_add_epi32(_mm256_castsi256_si128(t),
                                        _mm256_extracti128_si256(t, 1));
    const __m128 contrib =
        _mm_mul_ps(_mm_mul_ps(_mm_loadu_ps(scales + o), vsx),
                   _mm_cvtepi32_ps(sums4));
    const __m128 base = bias ? _mm_loadu_ps(bias + o) : _mm_loadu_ps(y + o);
    _mm_storeu_ps(y + o, _mm_add_ps(base, contrib));
  }
  for (; o < rows; ++o) {
    const int16_t* wo = w + static_cast<size_t>(o) * stride;
    __m256i acc = _mm256_setzero_si256();
    for (int c = 0; c < cols; c += 16) {
      const __m256i xv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + c));
      const __m256i wv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wo + c));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wv, xv));
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    const int32_t sum = _mm_cvtsi128_si32(s);
    const float contrib = (scales[o] * sx) * static_cast<float>(sum);
    y[o] = (bias ? bias[o] : y[o]) + contrib;
  }
}

// Vectorized activation quantization. cvtps2dq rounds to nearest, ties to
// even under the default MXCSR mode — exactly lrintf's rule — and
// |x * inv| <= 127 * (1 + eps) stays far below 127.5, so the saturating
// pack can never produce a value the scalar clamp would not: the two
// quantizers emit identical values for finite inputs.
__attribute__((target("avx2"))) float QuantizeActivationsAvx2(const float* x,
                                                              int n,
                                                              int16_t* out) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    vmax = _mm256_max_ps(vmax, _mm256_and_ps(abs_mask, _mm256_loadu_ps(x + i)));
  }
  alignas(32) float m8[8];
  _mm256_store_ps(m8, vmax);
  float maxabs = 0.0f;
  for (float v : m8) {
    if (v > maxabs) maxabs = v;
  }
  for (; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > maxabs) maxabs = a;
  }
  for (i = n; i < RoundUp16(n); ++i) out[i] = 0;
  if (maxabs == 0.0f) {
    std::memset(out, 0, static_cast<size_t>(n) * sizeof(int16_t));
    return 0.0f;
  }
  const float scale = maxabs / 127.0f;
  const float inv = 127.0f / maxabs;
  const __m256 vinv = _mm256_set1_ps(inv);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i), vinv));
    const __m128i w16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), w16);
  }
  for (; i < n; ++i) {
    long v = std::lrintf(x[i] * inv);
    if (v > 127) v = 127;
    if (v < -127) v = -127;
    out[i] = static_cast<int16_t>(v);
  }
  return scale;
}
#endif  // x86-64

}  // namespace

bool Int8Backend::CpuHasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Int8Backend::Int8Backend(bool force_scalar) {
  using_avx2_ = !force_scalar && CpuHasAvx2();
#if defined(__x86_64__) || defined(_M_X64)
  mat_vec_ = using_avx2_ ? &MatVecAvx2 : &MatVecScalar;
  quantize_ = using_avx2_ ? &QuantizeActivationsAvx2 : &QuantizeActivationsScalar;
#else
  mat_vec_ = &MatVecScalar;
  quantize_ = &QuantizeActivationsScalar;
#endif
}

std::unique_ptr<PackedWeights> Int8Backend::Pack(const Tensor& w) const {
  DEEPMAP_CHECK_EQ(w.rank(), 2);
  return std::make_unique<Int8Packed>(w, /*column_major=*/false);
}

std::unique_ptr<PackedWeights> Int8Backend::PackSparse(const Tensor& w) const {
  DEEPMAP_CHECK_EQ(w.rank(), 2);
  return std::make_unique<Int8Packed>(w, /*column_major=*/true);
}

void Int8Backend::AccumulateSparse(const PackedWeights& w, int col0,
                                   const int32_t* cols, const float* vals,
                                   int nnz, float* y) const {
  // The activation scale is max|x| over the given values; zero inputs can
  // neither raise it nor add to the exact int32 dots, so quantizing only a
  // row's nonzeros yields the same scale, sums and fp32 epilogue as
  // quantizing any dense window that holds them.
  const auto& p = static_cast<const Int8Packed&>(w);
  int16_t* qx = ActivationScratch(nnz);
  const float sx = quantize_(vals, nnz, qx);
  if (sx == 0.0f) return;  // all-zero values contribute nothing
  const int rows = p.rows();
  int32_t* acc = AccumulatorScratch(rows);
  std::fill(acc, acc + rows, 0);
  for (int k = 0; k < nnz; ++k) {
    const int16_t* wc = p.data() + static_cast<size_t>(col0 + cols[k]) * rows;
    const int32_t q = qx[k];
    for (int o = 0; o < rows; ++o) acc[o] += static_cast<int32_t>(wc[o]) * q;
  }
  // The mat-vec kernels' epilogue, element for element.
  const float* scales = p.scales();
  for (int o = 0; o < rows; ++o) {
    y[o] = y[o] + (scales[o] * sx) * static_cast<float>(acc[o]);
  }
}

void Int8Backend::ConvForward(const PackedWeights& w, const float* bias,
                              const float* x, float* y) const {
  const auto& p = static_cast<const Int8Packed&>(w);
  const int cols = p.cols();
  const int rows = p.rows();
  int16_t* qx = ActivationScratch(cols);
  const float sx = quantize_(x, cols, qx);
  if (sx == 0.0f) {
    for (int o = 0; o < rows; ++o) y[o] = bias[o];
    return;
  }
  mat_vec_(p.data(), static_cast<size_t>(cols), rows, qx, cols, p.scales(), sx,
           bias, y);
}

void Int8Backend::DenseForward(const PackedWeights& w, const float* bias,
                               const float* x, float* y) const {
  const auto& p = static_cast<const Int8Packed&>(w);
  const int cols = p.cols();
  const int rows = p.rows();
  int16_t* qx = ActivationScratch(cols);
  const float sx = quantize_(x, cols, qx);
  if (sx == 0.0f) {
    for (int o = 0; o < rows; ++o) y[o] = bias[o];
    return;
  }
  mat_vec_(p.data(), static_cast<size_t>(cols), rows, qx, cols, p.scales(), sx,
           bias, y);
}

}  // namespace deepmap::nn
