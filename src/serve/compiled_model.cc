#include "serve/compiled_model.h"

#include <cmath>

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

}  // namespace

StatusOr<CompiledModel> CompiledModel::Compile(
    core::DeepMapModel& model, const core::DeepMapConfig& config,
    int feature_dim, int sequence_length, int num_classes,
    const nn::InferenceBackend* backend) {
  if (feature_dim <= 0 || sequence_length <= 0 || num_classes <= 0) {
    return Status::InvalidArgument("compiled model needs positive dimensions");
  }
  CompiledModel cm;
  cm.backend_ = backend != nullptr ? backend : &nn::Fp32Backend();
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
    std::unique_ptr<nn::PackedWeights>* packed;  // set for weight matrices
    nn::Tensor* bias;                            // set for bias vectors
    std::vector<int> shape;
  };
  const Slot slots[] = {
      {"conv1.weights", &cm.conv1_p_, nullptr, {cm.c1_, cm.r_ * cm.m_}},
      {"conv1.bias", nullptr, &cm.conv1_b_, {cm.c1_}},
      {"conv2.weights", &cm.conv2_p_, nullptr, {cm.c2_, cm.c1_}},
      {"conv2.bias", nullptr, &cm.conv2_b_, {cm.c2_}},
      {"conv3.weights", &cm.conv3_p_, nullptr, {cm.c3_, cm.c2_}},
      {"conv3.bias", nullptr, &cm.conv3_b_, {cm.c3_}},
      {"dense1.weights", &cm.dense1_p_, nullptr, {cm.dense_units_, cm.readout_dim_}},
      {"dense1.bias", nullptr, &cm.dense1_b_, {cm.dense_units_}},
      {"dense2.weights", &cm.dense2_p_, nullptr, {cm.num_classes_, cm.dense_units_}},
      {"dense2.bias", nullptr, &cm.dense2_b_, {cm.num_classes_}},
  };
  for (size_t i = 0; i < params.size(); ++i) {
    if (Status s = CheckShape(slots[i].name, *params[i].value, slots[i].shape);
        !s.ok()) {
      return s;
    }
    if (slots[i].packed == &cm.conv1_p_) {
      *slots[i].packed = cm.backend_->PackSparse(*params[i].value);
    } else if (slots[i].packed != nullptr) {
      *slots[i].packed = cm.backend_->Pack(*params[i].value);
    } else {
      *slots[i].bias = *params[i].value;
    }
  }

  // Constant activations of an all-zero slot: conv bias -> ReLU chained
  // through the pointwise convolutions, computed through the same backend so
  // dummy slots and populated slots round identically.
  const nn::InferenceBackend& be = *cm.backend_;
  cm.dummy1_.assign(cm.conv1_b_.data(), cm.conv1_b_.data() + cm.c1_);
  be.Relu(cm.dummy1_.data(), cm.c1_);
  cm.dummy2_.resize(static_cast<size_t>(cm.c2_));
  be.ConvForward(*cm.conv2_p_, cm.conv2_b_.data(), cm.dummy1_.data(),
                 cm.dummy2_.data());
  be.Relu(cm.dummy2_.data(), cm.c2_);
  cm.dummy3_.resize(static_cast<size_t>(cm.c3_));
  be.ConvForward(*cm.conv3_p_, cm.conv3_b_.data(), cm.dummy2_.data(),
                 cm.dummy3_.data());
  be.Relu(cm.dummy3_.data(), cm.c3_);
  return cm;
}

size_t CompiledModel::PackedWeightBytes() const {
  return conv1_p_->MemoryBytes() + conv2_p_->MemoryBytes() +
         conv3_p_->MemoryBytes() + dense1_p_->MemoryBytes() +
         dense2_p_->MemoryBytes();
}

void CompiledModel::Forward(const SparseInput& input,
                            ForwardScratch* scratch) const {
  DEEPMAP_CHECK_EQ(input.w, w_);
  DEEPMAP_CHECK_EQ(input.r, r_);
  DEEPMAP_CHECK_EQ(input.m, m_);
  DEEPMAP_CHECK_EQ(input.field.size(), static_cast<size_t>(w_) * r_);
  const nn::InferenceBackend& be = *backend_;
  const bool concat = readout_ == core::ReadoutKind::kConcat;
  scratch->readout.assign(static_cast<size_t>(readout_dim_), 0.0f);
  scratch->h1.resize(static_cast<size_t>(c1_));
  scratch->h2.resize(static_cast<size_t>(c2_));
  scratch->h3.resize(static_cast<size_t>(c3_));

  for (int s = 0; s < w_; ++s) {
    // Conv1 over this slot's window, visiting only the nonzeros of its
    // non-dummy rows. With the fp32 backend the accumulation order per
    // output channel matches nn::Conv1D (bias first, then weights in
    // ascending (pos, feature) order), so skipping exact zeros leaves the
    // sums bit-identical.
    bool any_row = false;
    for (int pos = 0; pos < r_; ++pos) {
      const int32_t row = input.field[static_cast<size_t>(s) * r_ + pos];
      if (row < 0) continue;
      const int32_t begin = input.row_ptr[static_cast<size_t>(row)];
      const int32_t nnz = input.row_ptr[static_cast<size_t>(row) + 1] - begin;
      if (nnz == 0) continue;
      if (!any_row) {
        for (int o = 0; o < c1_; ++o) {
          scratch->h1[static_cast<size_t>(o)] = conv1_b_.data()[o];
        }
        any_row = true;
      }
      be.AccumulateSparse(*conv1_p_, pos * m_, input.cols.data() + begin,
                          input.vals.data() + begin, nnz, scratch->h1.data());
    }

    const std::vector<float>* h3 = &dummy3_;
    if (any_row) {
      be.Relu(scratch->h1.data(), c1_);
      be.ConvForward(*conv2_p_, conv2_b_.data(), scratch->h1.data(),
                     scratch->h2.data());
      be.Relu(scratch->h2.data(), c2_);
      be.ConvForward(*conv3_p_, conv3_b_.data(), scratch->h2.data(),
                     scratch->h3.data());
      be.Relu(scratch->h3.data(), c3_);
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
  be.DenseForward(*dense1_p_, dense1_b_.data(), scratch->readout.data(),
                  scratch->hidden.data());
  be.Relu(scratch->hidden.data(), dense_units_);
  // Dropout is identity at inference.
  scratch->logits.resize(static_cast<size_t>(num_classes_));
  be.DenseForward(*dense2_p_, dense2_b_.data(), scratch->hidden.data(),
                  scratch->logits.data());
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
