#include "serve/compiled_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "obs/trace.h"

// NOTE: this file is compiled with -ffp-contract=off (see src/CMakeLists.txt)
// so the fp32 chains below can never be FMA-contracted away from the
// training layers' rounding.

namespace deepmap::serve {
namespace {

Status ShapeError(const char* name, const nn::Tensor& got,
                  const std::vector<int>& want) {
  std::string msg = "compiled-model parameter '";
  msg += name;
  msg += "' has shape " + got.ShapeString() + ", expected [";
  for (size_t i = 0; i < want.size(); ++i) {
    if (i > 0) msg += "x";
    msg += std::to_string(want[i]);
  }
  msg += "]";
  return Status::InvalidArgument(msg);
}

Status CheckShape(const char* name, const nn::Tensor& t,
                  const std::vector<int>& want) {
  if (t.shape() != want) return ShapeError(name, t, want);
  return Status::Ok();
}

// Four fp32 lanes. GCC/Clang vector extensions lower to SSE2 on x86-64 and
// to NEON on AArch64 without any -march flag; every lane op is the IEEE
// operation of one scalar chain, so a lane rounds exactly as that chain.
typedef float F4 __attribute__((vector_size(16)));

inline F4 Load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void Store4(float* p, F4 v) { std::memcpy(p, &v, sizeof(v)); }
inline F4 Splat4(float x) { return F4{x, x, x, x}; }
/// ReLU per lane with nn::Relu's semantics (-0.0 and NaN pass through).
inline F4 Relu4(F4 v) {
  const F4 zero{};
  return v < zero ? zero : v;
}

/// One (slot, channel) chain of a pointwise convolution + ReLU:
/// bias[o], then wcm[i][o] * x[i] added in ascending i, as in nn::Conv1D.
inline float ConvChain(const float* wcm, int rows, int cols,
                       const float* bias, int o, const float* x) {
  float sum = bias[o];
  for (int i = 0; i < cols; ++i) {
    sum += wcm[static_cast<size_t>(i) * rows + o] * x[i];
  }
  return sum < 0.0f ? 0.0f : sum;
}

/// Channels [0, rows) of kSlots consecutive slots (x and y row-major, row
/// strides cols and rows). Eight channels at a time, every accumulator is one
/// lane of a named F4, so the tile stays in registers; the channel tail runs
/// ConvChain. Each lane starts at the bias and adds its terms in ascending
/// i, the order ConvChain (and nn::Conv1D) uses.
template <int kSlots>
void ConvTile(const float* wcm, int rows, int cols, const float* bias,
              const float* x, float* y) {
  static_assert(kSlots == 1 || kSlots == 4);
  // Rows of the tile's slots; with one slot they all alias row 0 unused.
  const size_t step = kSlots == 4 ? static_cast<size_t>(cols) : 0;
  const float* x0 = x;
  const float* x1 = x0 + step;
  const float* x2 = x1 + step;
  const float* x3 = x2 + step;
  int o = 0;
  for (; o + 8 <= rows; o += 8) {
    const F4 b_lo = Load4(bias + o);
    const F4 b_hi = Load4(bias + o + 4);
    F4 a0_lo = b_lo, a0_hi = b_hi, a1_lo = b_lo, a1_hi = b_hi;
    F4 a2_lo = b_lo, a2_hi = b_hi, a3_lo = b_lo, a3_hi = b_hi;
    const float* wo = wcm + o;
    for (int i = 0; i < cols; ++i) {
      const F4 w_lo = Load4(wo);
      const F4 w_hi = Load4(wo + 4);
      wo += rows;
      const F4 v0 = Splat4(x0[i]);
      a0_lo += w_lo * v0;
      a0_hi += w_hi * v0;
      if constexpr (kSlots == 4) {
        const F4 v1 = Splat4(x1[i]);
        a1_lo += w_lo * v1;
        a1_hi += w_hi * v1;
        const F4 v2 = Splat4(x2[i]);
        a2_lo += w_lo * v2;
        a2_hi += w_hi * v2;
        const F4 v3 = Splat4(x3[i]);
        a3_lo += w_lo * v3;
        a3_hi += w_hi * v3;
      }
    }
    Store4(y + o, Relu4(a0_lo));
    Store4(y + o + 4, Relu4(a0_hi));
    if constexpr (kSlots == 4) {
      float* y1 = y + rows;
      float* y2 = y1 + rows;
      float* y3 = y2 + rows;
      Store4(y1 + o, Relu4(a1_lo));
      Store4(y1 + o + 4, Relu4(a1_hi));
      Store4(y2 + o, Relu4(a2_lo));
      Store4(y2 + o + 4, Relu4(a2_hi));
      Store4(y3 + o, Relu4(a3_lo));
      Store4(y3 + o + 4, Relu4(a3_hi));
    }
  }
  for (; o < rows; ++o) {
    for (int k = 0; k < kSlots; ++k) {
      y[static_cast<size_t>(k) * rows + o] = ConvChain(
          wcm, rows, cols, bias, o, x + static_cast<size_t>(k) * cols);
    }
  }
}

/// Pointwise convolution + ReLU of `count` slots: y = relu(bias + W x) per
/// slot over a column-major [cols, rows] weight matrix, x row-major
/// [count, cols] and y row-major [count, rows]. Slots go through the tile
/// four at a time and the slot tail one at a time; the slots are
/// independent, so batching them reorders no chain.
void PointwiseConvRelu(const float* wcm, int rows, int cols, const float* bias,
                       const float* x, int count, float* y) {
  int s = 0;
  for (; s + 4 <= count; s += 4) {
    ConvTile<4>(wcm, rows, cols, bias, x + static_cast<size_t>(s) * cols,
                y + static_cast<size_t>(s) * rows);
  }
  for (; s < count; ++s) {
    ConvTile<1>(wcm, rows, cols, bias, x + static_cast<size_t>(s) * cols,
                y + static_cast<size_t>(s) * rows);
  }
}

/// Dense layer over a column-major [cols, rows] matrix:
/// y[o] = dot(x, w[., o]) + bias[o], each chain starting at 0.0f and adding
/// x[t] * w[t][o] in ascending t, the bias added last as in nn::Dense. Eight
/// outputs at a time run as the lanes of two F4s; the tail as scalar chains.
void DenseForward(const float* wcm, int rows, int cols, const float* bias,
                  const float* x, float* y) {
  int o = 0;
  for (; o + 8 <= rows; o += 8) {
    F4 lo{}, hi{};
    const float* wt = wcm + o;
    for (int t = 0; t < cols; ++t, wt += rows) {
      const F4 v = Splat4(x[t]);
      lo += Load4(wt) * v;
      hi += Load4(wt + 4) * v;
    }
    Store4(y + o, lo + Load4(bias + o));
    Store4(y + o + 4, hi + Load4(bias + o + 4));
  }
  for (; o < rows; ++o) {
    float sum = 0.0f;
    for (int t = 0; t < cols; ++t) {
      sum += x[t] * wcm[static_cast<size_t>(t) * rows + o];
    }
    y[o] = sum + bias[o];
  }
}

/// Whether the r window rows field[0, r) hold a nonzero input. A slot
/// without one is all-zero input, whose activations are the dummy chain.
bool WindowHasInput(const SparseInput& in, const int32_t* field, int r) {
  for (int pos = 0; pos < r; ++pos) {
    const int32_t row = field[pos];
    if (row >= 0 && in.row_ptr[static_cast<size_t>(row) + 1] >
                        in.row_ptr[static_cast<size_t>(row)]) {
      return true;
    }
  }
  return false;
}

/// Channels [o, o + 16) of Conv1 + ReLU for one slot whose window rows are
/// field[0, r): each channel's chain is its bias, then
/// w[pos * m + col][o] * val over the nonzeros in ascending (pos, col), the
/// order nn::Conv1D adds in (it only omits the exact-zero inputs). The
/// sixteen accumulators stay in registers across the whole window.
void Conv1Block(const float* wcm, int rows, int m, const SparseInput& in,
                const int32_t* field, int r, const float* bias, int o,
                float* y) {
  constexpr int kVecs = 4;
  F4 acc[kVecs];
  for (int j = 0; j < kVecs; ++j) acc[j] = Load4(bias + o + 4 * j);
  for (int pos = 0; pos < r; ++pos) {
    const int32_t row = field[pos];
    if (row < 0) continue;
    const float* wp = wcm + static_cast<size_t>(pos) * m * rows + o;
    const int32_t end = in.row_ptr[static_cast<size_t>(row) + 1];
    for (int32_t k = in.row_ptr[static_cast<size_t>(row)]; k < end; ++k) {
      const float* wc = wp + static_cast<size_t>(in.cols[k]) * rows;
      const F4 v = Splat4(in.vals[k]);
      for (int j = 0; j < kVecs; ++j) acc[j] += Load4(wc + 4 * j) * v;
    }
  }
  for (int j = 0; j < kVecs; ++j) Store4(y + o + 4 * j, Relu4(acc[j]));
}

/// Conv1 + ReLU of one slot into y[0, rows): sixteen channels at a time,
/// then the same chain one channel at a time.
void Conv1Slot(const float* wcm, int rows, int m, const SparseInput& in,
               const int32_t* field, int r, const float* bias, float* y) {
  int o = 0;
  for (; o + 16 <= rows; o += 16) {
    Conv1Block(wcm, rows, m, in, field, r, bias, o, y);
  }
  for (; o < rows; ++o) {
    float sum = bias[o];
    for (int pos = 0; pos < r; ++pos) {
      const int32_t row = field[pos];
      if (row < 0) continue;
      const int32_t end = in.row_ptr[static_cast<size_t>(row) + 1];
      for (int32_t k = in.row_ptr[static_cast<size_t>(row)]; k < end; ++k) {
        sum += wcm[(static_cast<size_t>(pos) * m + in.cols[k]) * rows + o] *
               in.vals[k];
      }
    }
    y[o] = sum < 0.0f ? 0.0f : sum;
  }
}

/// In-place ReLU mirroring nn::Relu: strictly negative values clamp to
/// 0.0f; -0.0f passes through unchanged.
void Relu(float* x, int n) {
  for (int i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

std::vector<float> Flat(const nn::Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.NumElements());
}

/// Transpose of a row-major [rows, cols] matrix, i.e. its column-major copy.
std::vector<float> ColumnMajor(const nn::Tensor& t) {
  const int rows = t.dim(0);
  const int cols = t.dim(1);
  std::vector<float> out(static_cast<size_t>(rows) * cols);
  for (int o = 0; o < rows; ++o) {
    for (int c = 0; c < cols; ++c) {
      out[static_cast<size_t>(c) * rows + o] =
          t.data()[static_cast<size_t>(o) * cols + c];
    }
  }
  return out;
}

}  // namespace

StatusOr<CompiledModel> CompiledModel::Compile(
    core::DeepMapModel& model, const core::DeepMapConfig& config,
    int feature_dim, int sequence_length, int num_classes) {
  if (feature_dim <= 0 || sequence_length <= 0 || num_classes <= 0) {
    return Status::InvalidArgument("compiled model needs positive dimensions");
  }
  CompiledModel cm;
  cm.m_ = feature_dim;
  cm.w_ = sequence_length;
  cm.r_ = config.receptive_field_size;
  cm.c1_ = config.conv1_channels;
  cm.c2_ = config.conv2_channels;
  cm.c3_ = config.conv3_channels;
  cm.dense_units_ = config.dense_units;
  cm.num_classes_ = num_classes;
  cm.readout_ = config.readout;
  cm.readout_dim_ = config.readout == core::ReadoutKind::kConcat
                        ? config.conv3_channels * sequence_length
                        : config.conv3_channels;

  std::vector<nn::Param> params = model.Params();
  if (params.size() != 10) {
    return Status::InvalidArgument(
        "unexpected parameter count for a DEEPMAP network: got " +
        std::to_string(params.size()) + ", expected 10");
  }
  struct Slot {
    const char* name;
    std::vector<float>* dst;
    std::vector<int> shape;
  };
  const Slot slots[] = {
      {"conv1.weights", &cm.conv1_w_, {cm.c1_, cm.r_ * cm.m_}},
      {"conv1.bias", &cm.conv1_b_, {cm.c1_}},
      {"conv2.weights", &cm.conv2_w_, {cm.c2_, cm.c1_}},
      {"conv2.bias", &cm.conv2_b_, {cm.c2_}},
      {"conv3.weights", &cm.conv3_w_, {cm.c3_, cm.c2_}},
      {"conv3.bias", &cm.conv3_b_, {cm.c3_}},
      {"dense1.weights", &cm.dense1_w_, {cm.dense_units_, cm.readout_dim_}},
      {"dense1.bias", &cm.dense1_b_, {cm.dense_units_}},
      {"dense2.weights", &cm.dense2_w_, {cm.num_classes_, cm.dense_units_}},
      {"dense2.bias", &cm.dense2_b_, {cm.num_classes_}},
  };
  for (size_t i = 0; i < params.size(); ++i) {
    const nn::Tensor& value = *params[i].value;
    if (Status s = CheckShape(slots[i].name, value, slots[i].shape); !s.ok()) {
      return s;
    }
    *slots[i].dst = value.rank() == 2 ? ColumnMajor(value) : Flat(value);
  }

  // Constant activations of an all-zero slot: conv bias -> ReLU chained
  // through the pointwise convolutions, computed by the same kernels (the
  // tile with one slot) so dummy slots and populated slots round
  // identically.
  cm.dummy1_ = cm.conv1_b_;
  Relu(cm.dummy1_.data(), cm.c1_);
  cm.dummy2_.resize(static_cast<size_t>(cm.c2_));
  PointwiseConvRelu(cm.conv2_w_.data(), cm.c2_, cm.c1_, cm.conv2_b_.data(),
                    cm.dummy1_.data(), 1, cm.dummy2_.data());
  cm.dummy3_.resize(static_cast<size_t>(cm.c3_));
  PointwiseConvRelu(cm.conv3_w_.data(), cm.c3_, cm.c2_, cm.conv3_b_.data(),
                    cm.dummy2_.data(), 1, cm.dummy3_.data());
  return cm;
}

void CompiledModel::Forward(const SparseInput& input,
                            ForwardScratch* scratch) const {
  DEEPMAP_CHECK_EQ(input.w, w_);
  DEEPMAP_CHECK_EQ(input.r, r_);
  DEEPMAP_CHECK_EQ(input.m, m_);
  DEEPMAP_CHECK_EQ(input.field.size(), static_cast<size_t>(w_) * r_);
  scratch->h1.resize(static_cast<size_t>(w_) * c1_);

  int live = 0;
  {
    // Conv1 over every slot's window, visiting only the nonzeros of its
    // non-dummy rows. A slot with at least one nonzero is live and gets the
    // next row of h1. The accumulation order per output channel matches
    // nn::Conv1D (bias first, then weights in ascending (pos, feature)
    // order), so skipping exact zeros leaves the sums bit-identical.
    DEEPMAP_TRACE_SPAN("serve.forward.conv1", "serve");
    for (int s = 0; s < w_; ++s) {
      const int32_t* field = input.field.data() + static_cast<size_t>(s) * r_;
      if (!WindowHasInput(input, field, r_)) continue;
      Conv1Slot(conv1_w_.data(), c1_, m_, input, field, r_, conv1_b_.data(),
                scratch->h1.data() + static_cast<size_t>(live) * c1_);
      ++live;
    }
  }

  // Conv2 then Conv3 over all live slots at once (the tile kernel); a dead
  // slot's activations are the precomputed dummy chain.
  scratch->h2.resize(static_cast<size_t>(live) * c2_);
  scratch->h3.resize(static_cast<size_t>(live) * c3_);
  {
    DEEPMAP_TRACE_SPAN("serve.forward.conv23", "serve");
    PointwiseConvRelu(conv2_w_.data(), c2_, c1_, conv2_b_.data(),
                      scratch->h1.data(), live, scratch->h2.data());
    PointwiseConvRelu(conv3_w_.data(), c3_, c2_, conv3_b_.data(),
                      scratch->h2.data(), live, scratch->h3.data());
  }

  {
    DEEPMAP_TRACE_SPAN("serve.forward.readout", "serve");
    const bool concat = readout_ == core::ReadoutKind::kConcat;
    scratch->readout.assign(static_cast<size_t>(readout_dim_), 0.0f);
    float* readout = scratch->readout.data();
    const float* next_live = scratch->h3.data();
    for (int s = 0; s < w_; ++s) {
      const int32_t* field = input.field.data() + static_cast<size_t>(s) * r_;
      const float* h3 = dummy3_.data();
      if (WindowHasInput(input, field, r_)) {
        h3 = next_live;
        next_live += c3_;
      }
      if (concat) {
        std::copy(h3, h3 + c3_, readout + static_cast<size_t>(s) * c3_);
      } else {
        // Sequential slot-order accumulation mirrors nn::SumPool/MeanPool.
        for (int c = 0; c < c3_; ++c) readout[c] += h3[c];
      }
    }
    if (readout_ == core::ReadoutKind::kMean) {
      // nn::MeanPool divides the slot sum by the pooled length w.
      const float inv = 1.0f / static_cast<float>(w_);
      for (float& v : scratch->readout) v *= inv;
    }
  }

  DEEPMAP_TRACE_SPAN("serve.forward.dense", "serve");
  scratch->hidden.resize(static_cast<size_t>(dense_units_));
  DenseForward(dense1_w_.data(), dense_units_, readout_dim_,
               dense1_b_.data(), scratch->readout.data(),
               scratch->hidden.data());
  Relu(scratch->hidden.data(), dense_units_);
  // Dropout is identity at inference.
  scratch->logits.resize(static_cast<size_t>(num_classes_));
  DenseForward(dense2_w_.data(), num_classes_, dense_units_, dense2_b_.data(),
               scratch->hidden.data(), scratch->logits.data());
}

Prediction CompiledModel::Predict(const SparseInput& input,
                                  ForwardScratch* scratch) const {
  Forward(input, scratch);
  const std::vector<float>& logits = scratch->logits;
  Prediction p;
  // Argmax with Tensor::ArgMax's tie-break (first maximum wins).
  int best = 0;
  for (int i = 1; i < num_classes_; ++i) {
    if (logits[static_cast<size_t>(i)] > logits[static_cast<size_t>(best)]) {
      best = i;
    }
  }
  p.label = best;
  // Numerically stable softmax.
  p.probabilities.resize(static_cast<size_t>(num_classes_));
  const float max_logit = logits[static_cast<size_t>(best)];
  double total = 0.0;
  for (int i = 0; i < num_classes_; ++i) {
    const double e = std::exp(static_cast<double>(logits[i] - max_logit));
    p.probabilities[static_cast<size_t>(i)] = static_cast<float>(e);
    total += e;
  }
  const float inv = static_cast<float>(1.0 / total);
  for (float& v : p.probabilities) v *= inv;
  return p;
}

Prediction CompiledModel::Predict(const nn::Tensor& input,
                                  ForwardScratch* scratch) const {
  return Predict(SparseInput::FromDense(input, w_, r_), scratch);
}

nn::Tensor CompiledModel::Logits(const SparseInput& input,
                                 ForwardScratch* scratch) const {
  Forward(input, scratch);
  return nn::Tensor::FromFlat(scratch->logits);
}

nn::Tensor CompiledModel::Logits(const nn::Tensor& input,
                                 ForwardScratch* scratch) const {
  return Logits(SparseInput::FromDense(input, w_, r_), scratch);
}

}  // namespace deepmap::serve
