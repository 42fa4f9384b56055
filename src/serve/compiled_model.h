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
//     nonzeros (nn::InferenceBackend::AccumulateSparse), never touching a
//     zero input,
//   - routes fully-empty vertex slots through a precomputed constant
//     activation chain (bias -> ReLU -> pointwise convs), so per-graph cost
//     scales with the actual vertex count n instead of w,
//   - reuses caller-provided scratch buffers (no per-sample allocation).
// The sum, mean and concat readouts all run in that one pass. Predict and
// Logits also accept the dense tensor, converting it with
// SparseInput::FromDense; that is an adapter for offline callers and tests,
// not a second forward implementation.
//
// Kernel execution is delegated to an nn::InferenceBackend chosen at Compile
// time: weights are packed once (conv1 through PackSparse, the rest through
// Pack) and every dot product in the forward pass runs through the
// backend's primitives. With the default nn::Fp32Backend() the evaluation
// order mirrors the training layers exactly, so compiled logits are
// bit-identical to DeepMapModel::Forward(.., false); quantized backends
// (nn::Int8Backend) trade bounded rounding for throughput and are guarded
// by the registry's calibration harness (see serve/model_registry.h).
//
// CompiledModel is immutable after Compile and safe to share across threads.
#ifndef DEEPMAP_SERVE_COMPILED_MODEL_H_
#define DEEPMAP_SERVE_COMPILED_MODEL_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/deepmap.h"
#include "nn/inference_backend.h"
#include "nn/tensor.h"
#include "serve/sparse_input.h"

namespace deepmap::serve {

/// Provenance of a served answer. Anything other than kModel means the
/// engine degraded gracefully instead of surfacing a model-path failure.
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
  std::vector<float> h1, h2, h3;  // per-slot conv activations
  std::vector<float> readout;     // pooled / concatenated representation
  std::vector<float> hidden;      // dense hidden activations
  std::vector<float> logits;      // final class scores
};

/// Flat immutable weights + architecture dims of one DEEPMAP network.
/// Move-only: the packed weight bundle is owned exclusively.
class CompiledModel {
 public:
  /// Snapshots `model`'s parameters, packed for `backend` (nullptr selects
  /// the exact-fp32 nn::Fp32Backend()). Validates that the parameter list
  /// has the expected layer structure for (config, feature_dim,
  /// sequence_length, num_classes); returns InvalidArgument on any shape
  /// mismatch. `backend` must outlive the compiled model.
  static StatusOr<CompiledModel> Compile(
      core::DeepMapModel& model, const core::DeepMapConfig& config,
      int feature_dim, int sequence_length, int num_classes,
      const nn::InferenceBackend* backend = nullptr);

  CompiledModel(CompiledModel&&) = default;
  CompiledModel& operator=(CompiledModel&&) = default;

  int feature_dim() const { return m_; }
  int sequence_length() const { return w_; }
  int num_classes() const { return num_classes_; }
  int receptive_field_size() const { return r_; }

  /// Name of the backend executing this model's forward pass.
  const char* backend_name() const { return backend_->name(); }

  /// Resident bytes of all packed weight matrices (bench/inspection).
  size_t PackedWeightBytes() const;

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

  // Kernel execution strategy; points at nn::Fp32Backend() or at a backend
  // owned by the surrounding ServableModel.
  const nn::InferenceBackend* backend_ = nullptr;

  // Weights packed by backend_ (conv1 through PackSparse); biases stay fp32
  // (they seed accumulators in every backend). Training layouts: conv1
  // [c1, r*m], conv2 [c2, c1], conv3 [c3, c2], dense1 [dense, readout_dim],
  // dense2 [C, dense].
  std::unique_ptr<nn::PackedWeights> conv1_p_, conv2_p_, conv3_p_;
  std::unique_ptr<nn::PackedWeights> dense1_p_, dense2_p_;
  nn::Tensor conv1_b_, conv2_b_, conv3_b_, dense1_b_, dense2_b_;

  // Activations an all-zero (dummy/padding) slot produces after each
  // conv+ReLU; computed once at Compile time through the same backend.
  std::vector<float> dummy1_, dummy2_, dummy3_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_COMPILED_MODEL_H_
