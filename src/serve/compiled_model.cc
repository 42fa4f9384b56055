#include "serve/compiled_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

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

/// y[o] += sum_{k in [0, nnz)} w[col0 + cols[k]][o] * vals[k] for every
/// output o < rows, over a column-major weight matrix. Term k is added to
/// every output before term k + 1, so each output's chain runs in ascending
/// k (the ascending column order nn::Conv1D adds in); the outputs are
/// independent chains, and the contiguous o loop vectorizes without
/// reassociating any of them.
void AccumulateSparse(const float* w, int rows, int col0, const int32_t* cols,
                      const float* vals, int nnz, float* y) {
  for (int k = 0; k < nnz; ++k) {
    const float* __restrict wc =
        w + static_cast<size_t>(col0 + cols[k]) * rows;
    const float x = vals[k];
    float* __restrict out = y;
    for (int o = 0; o < rows; ++o) out[o] += wc[o] * x;
  }
}

/// Pointwise convolution over a row-major [rows, cols] matrix:
/// y[o] = bias[o] + dot(w[o], x), the bias folded in first as in nn::Conv1D.
void ConvForward(const float* w, int rows, int cols, const float* bias,
                 const float* x, float* y) {
  for (int o = 0; o < rows; ++o) {
    float sum = bias[o];
    const float* wo = w + static_cast<size_t>(o) * cols;
    for (int i = 0; i < cols; ++i) sum += wo[i] * x[i];
    y[o] = sum;
  }
}

/// Dense layer over a row-major [rows, cols] matrix:
/// y[o] = dot(x, w[o]) + bias[o], the bias added last as in nn::Dense.
void DenseForward(const float* w, int rows, int cols, const float* bias,
                  const float* x, float* y) {
  for (int o = 0; o < rows; ++o) {
    float sum = 0.0f;
    const float* wo = w + static_cast<size_t>(o) * cols;
    for (int t = 0; t < cols; ++t) sum += x[t] * wo[t];
    y[o] = sum + bias[o];
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
    *slots[i].dst = slots[i].dst == &cm.conv1_w_ ? ColumnMajor(value)
                                                 : Flat(value);
  }

  // Constant activations of an all-zero slot: conv bias -> ReLU chained
  // through the pointwise convolutions, computed by the same kernels so
  // dummy slots and populated slots round identically.
  cm.dummy1_ = cm.conv1_b_;
  Relu(cm.dummy1_.data(), cm.c1_);
  cm.dummy2_.resize(static_cast<size_t>(cm.c2_));
  ConvForward(cm.conv2_w_.data(), cm.c2_, cm.c1_, cm.conv2_b_.data(),
              cm.dummy1_.data(), cm.dummy2_.data());
  Relu(cm.dummy2_.data(), cm.c2_);
  cm.dummy3_.resize(static_cast<size_t>(cm.c3_));
  ConvForward(cm.conv3_w_.data(), cm.c3_, cm.c2_, cm.conv3_b_.data(),
              cm.dummy2_.data(), cm.dummy3_.data());
  Relu(cm.dummy3_.data(), cm.c3_);
  return cm;
}

void CompiledModel::Forward(const SparseInput& input,
                            ForwardScratch* scratch) const {
  DEEPMAP_CHECK_EQ(input.w, w_);
  DEEPMAP_CHECK_EQ(input.r, r_);
  DEEPMAP_CHECK_EQ(input.m, m_);
  DEEPMAP_CHECK_EQ(input.field.size(), static_cast<size_t>(w_) * r_);
  const bool concat = readout_ == core::ReadoutKind::kConcat;
  scratch->readout.assign(static_cast<size_t>(readout_dim_), 0.0f);
  scratch->h1.resize(static_cast<size_t>(c1_));
  scratch->h2.resize(static_cast<size_t>(c2_));
  scratch->h3.resize(static_cast<size_t>(c3_));

  for (int s = 0; s < w_; ++s) {
    // Conv1 over this slot's window, visiting only the nonzeros of its
    // non-dummy rows. The accumulation order per output channel matches
    // nn::Conv1D (bias first, then weights in ascending (pos, feature)
    // order), so skipping exact zeros leaves the sums bit-identical.
    bool any_row = false;
    for (int pos = 0; pos < r_; ++pos) {
      const int32_t row = input.field[static_cast<size_t>(s) * r_ + pos];
      if (row < 0) continue;
      const int32_t begin = input.row_ptr[static_cast<size_t>(row)];
      const int32_t nnz = input.row_ptr[static_cast<size_t>(row) + 1] - begin;
      if (nnz == 0) continue;
      if (!any_row) {
        std::copy(conv1_b_.begin(), conv1_b_.end(), scratch->h1.begin());
        any_row = true;
      }
      AccumulateSparse(conv1_w_.data(), c1_, pos * m_,
                       input.cols.data() + begin, input.vals.data() + begin,
                       nnz, scratch->h1.data());
    }

    const std::vector<float>* h3 = &dummy3_;
    if (any_row) {
      Relu(scratch->h1.data(), c1_);
      ConvForward(conv2_w_.data(), c2_, c1_, conv2_b_.data(),
                  scratch->h1.data(), scratch->h2.data());
      Relu(scratch->h2.data(), c2_);
      ConvForward(conv3_w_.data(), c3_, c2_, conv3_b_.data(),
                  scratch->h2.data(), scratch->h3.data());
      Relu(scratch->h3.data(), c3_);
      h3 = &scratch->h3;
    }
    if (concat) {
      float* dst = scratch->readout.data() + static_cast<size_t>(s) * c3_;
      for (int c = 0; c < c3_; ++c) dst[c] = (*h3)[static_cast<size_t>(c)];
    } else {
      // Sequential slot-order accumulation mirrors nn::SumPool/MeanPool.
      for (int c = 0; c < c3_; ++c) {
        scratch->readout[static_cast<size_t>(c)] += (*h3)[static_cast<size_t>(c)];
      }
    }
  }
  if (readout_ == core::ReadoutKind::kMean) {
    // nn::MeanPool divides the slot sum by the pooled length w.
    const float inv = 1.0f / static_cast<float>(w_);
    for (float& v : scratch->readout) v *= inv;
  }

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
