// Inference-only "compiled" form of a trained DeepMapModel.
//
// The training-path layers (nn::Conv1D etc.) cache activations for Backward
// on every Forward call, allocate a fresh tensor per layer, and compute all
// w sequence slots over a dense [w*r, m] input even though that input is
// zero-padded to the dataset-wide maximum vertex count and its vertex rows
// hold a few nonzero columns out of m. None of that is needed to serve
// predictions, so the registry compiles the parameters into a flat,
// immutable weight bundle with one forward pass over a SparseInput
// (serve/sparse_input.h) that
//   - runs Conv1 as a sum of weight columns over each receptive-field row's
//     nonzeros, never touching a zero input,
//   - keeps Conv1's accumulators in registers across a slot's window, and
//     runs Conv2 and Conv3 over all live slots at once, four slots by eight
//     channels per register tile,
//   - routes fully-empty vertex slots through a precomputed constant
//     activation chain (bias -> ReLU -> pointwise convs), so per-graph cost
//     scales with the actual vertex count n instead of w,
//   - reuses caller-provided scratch buffers (no per-sample allocation).
// The sum, mean and concat readouts all run in that one pass. Predict and
// Logits also accept the dense tensor, converting it with
// SparseInput::FromDense; that is an adapter for offline callers and tests,
// not a second forward implementation.
//
// Every kernel is plain fp32 and adds its terms in the training layers'
// order: one ascending-index chain per output, bias first for the
// convolutions (nn::Conv1D) and last for the dense layers (nn::Dense). Conv1
// only omits the products of zero inputs; for finite weights those are
// +-0.0 and leave a running sum unchanged unless it is exactly -0.0. The
// tiles only run independent chains side by side, one per vector lane. So
// compiled logits are bit-identical to DeepMapModel::Forward(.., false); the
// perf_equiv and serve suites pin this. compiled_model.cc is built with
// -ffp-contract=off (src/CMakeLists.txt) so no multiply-add is fused.
//
// CompiledModel is immutable after Compile and safe to share across threads.
#ifndef DEEPMAP_SERVE_COMPILED_MODEL_H_
#define DEEPMAP_SERVE_COMPILED_MODEL_H_

#include <vector>

#include "common/status.h"
#include "core/deepmap.h"
#include "nn/tensor.h"
#include "serve/sparse_input.h"

namespace deepmap::serve {

/// Provenance of a served answer. Anything other than kModel means the
/// server degraded gracefully instead of surfacing a model-path failure.
enum class PredictionSource : uint8_t {
  kModel = 0,       // full forward pass (possibly replayed from the cache)
  kStaleCache = 1,  // degraded: cached answer served while the model failed
  kFallback = 2,    // degraded: reference-dataset majority-class prior
};

/// A served classification: argmax class plus the softmax distribution.
struct Prediction {
  int label = -1;
  std::vector<float> probabilities;  // size C, sums to ~1
  PredictionSource source = PredictionSource::kModel;
};

/// Reusable per-thread forward-pass workspace.
struct ForwardScratch {
  std::vector<float> h1, h2, h3;  // conv activations, one row per live slot
  std::vector<float> readout;     // pooled / concatenated representation
  std::vector<float> hidden;      // dense hidden activations
  std::vector<float> logits;      // final class scores
};

/// Flat immutable weights + architecture dims of one DEEPMAP network.
class CompiledModel {
 public:
  /// Snapshots `model`'s parameters. Validates that the parameter list has
  /// the expected layer structure for (config, feature_dim, sequence_length,
  /// num_classes); returns InvalidArgument on any shape mismatch.
  static StatusOr<CompiledModel> Compile(core::DeepMapModel& model,
                                         const core::DeepMapConfig& config,
                                         int feature_dim, int sequence_length,
                                         int num_classes);

  int feature_dim() const { return m_; }
  int sequence_length() const { return w_; }
  int num_classes() const { return num_classes_; }
  int receptive_field_size() const { return r_; }

  /// Classifies one preprocessed input (w, r and m must match the model).
  /// Thread-safe; pass a distinct `scratch` per calling thread.
  Prediction Predict(const SparseInput& input, ForwardScratch* scratch) const;
  /// Predict on a dense [w*r, m] input.
  Prediction Predict(const nn::Tensor& input, ForwardScratch* scratch) const;

  /// Raw class scores (pre-softmax) for equivalence checks; written into
  /// scratch->logits and returned as a tensor copy.
  nn::Tensor Logits(const SparseInput& input, ForwardScratch* scratch) const;
  /// Logits on a dense [w*r, m] input.
  nn::Tensor Logits(const nn::Tensor& input, ForwardScratch* scratch) const;

 private:
  CompiledModel() = default;

  /// Runs the conv stack + readout + dense head; leaves logits in
  /// scratch->logits.
  void Forward(const SparseInput& input, ForwardScratch* scratch) const;

  int m_ = 0;            // vertex feature dimension
  int w_ = 0;            // sequence length (max vertices)
  int r_ = 0;            // receptive field size
  int c1_ = 0, c2_ = 0, c3_ = 0;
  int dense_units_ = 0;
  int num_classes_ = 0;
  int readout_dim_ = 0;
  core::ReadoutKind readout_ = core::ReadoutKind::kSum;

  // Every weight matrix column-major (the transpose of its training layout),
  // so one input column's weights for every output are contiguous and the
  // kernels run adjacent outputs in vector lanes: conv1 [r*m, c1], conv2
  // [c1, c2], conv3 [c2, c3], dense1 [readout_dim, dense], dense2 [dense, C].
  std::vector<float> conv1_w_, conv2_w_, conv3_w_, dense1_w_, dense2_w_;
  std::vector<float> conv1_b_, conv2_b_, conv3_b_, dense1_b_, dense2_b_;

  // Activations an all-zero (dummy/padding) slot produces after each
  // conv+ReLU; computed once at Compile time by the same kernels.
  std::vector<float> dummy1_, dummy2_, dummy3_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_COMPILED_MODEL_H_
