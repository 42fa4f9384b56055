// The offline reference a served answer is compared against: the training
// stack's DeepMapModel::Forward logits, turned into a Prediction with the
// argmax and softmax CompiledModel::Predict documents (first maximum wins;
// exp in double of logit - max, float probabilities scaled by 1 / sum).
// Shared by the serving suites so every front-end test checks the same
// reference, byte for byte.
#ifndef DEEPMAP_TESTS_OFFLINE_PREDICTION_H_
#define DEEPMAP_TESTS_OFFLINE_PREDICTION_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/deepmap.h"
#include "nn/tensor.h"
#include "serve/compiled_model.h"

namespace deepmap {

inline serve::Prediction OfflinePrediction(core::DeepMapModel& model,
                                           const nn::Tensor& input) {
  const nn::Tensor logits = model.Forward(input, /*training=*/false);
  const float* z = logits.data();
  const int classes = logits.NumElements();
  serve::Prediction p;
  p.label = 0;
  for (int i = 1; i < classes; ++i) {
    if (z[i] > z[p.label]) p.label = i;
  }
  p.probabilities.resize(static_cast<size_t>(classes));
  double total = 0.0;
  for (int i = 0; i < classes; ++i) {
    const double e = std::exp(static_cast<double>(z[i] - z[p.label]));
    p.probabilities[static_cast<size_t>(i)] = static_cast<float>(e);
    total += e;
  }
  const float inv = static_cast<float>(1.0 / total);
  for (float& v : p.probabilities) v *= inv;
  return p;
}

/// Same label and byte-identical probabilities (EXPECT_EQ on the vector
/// would let -0.0 match 0.0).
inline void ExpectSameBytes(const serve::Prediction& got,
                            const serve::Prediction& want) {
  EXPECT_EQ(got.label, want.label);
  ASSERT_EQ(got.probabilities.size(), want.probabilities.size());
  EXPECT_EQ(std::memcmp(got.probabilities.data(), want.probabilities.data(),
                        want.probabilities.size() * sizeof(float)),
            0);
}

}  // namespace deepmap

#endif  // DEEPMAP_TESTS_OFFLINE_PREDICTION_H_
