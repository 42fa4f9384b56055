// Serving-time preprocessing: request graph -> sparse CNN input.
//
// At training time the whole pipeline (vertex feature maps -> vocabulary ->
// eigenvector-centrality alignment -> receptive fields -> dense tensor) is
// computed over the full dataset. To classify a graph that arrives at
// serving time the same state must be reproduced:
//   - the densification scheme (vocabulary / hashing, log scaling, column
//     scales) is rebuilt from the reference (training) dataset and frozen,
//   - the WL color dictionary is replayed over the reference graphs so that
//     request-graph colors are assigned the same ids the model was trained
//     on (WlRefinement dictionaries are shared, deterministic state),
//   - the sequence length w is pinned to the training-time maximum.
// Request graphs then go through the identical per-graph steps, except that
// nothing is densified: PreprocessSparse emits each vertex's nonzero
// (column, value) pairs once (DatasetVertexFeatures::SparseRow, converted
// to float) and a [w, r] table of which vertex fills each receptive-field
// position — a SparseInput, which CompiledModel consumes directly.
// Preprocess returns the dense [w*r, m] tensor the offline pipeline builds
// (SparseInput::ToDense of the same result) for callers that compare
// against it; the serve path never builds it.
//
// Graphlet sampling draws from a per-request Rng seeded by the graph's
// content digest (graph::DigestOf) mixed with config.features.seed, so a
// graphlet-model input is a pure function of the request graph: it does
// not depend on request order, replica or concurrency.
//
// PreprocessSparse() and Preprocess() are thread-safe. The WL kind still
// serializes on a mutex because refinement may grow the shared dictionary
// with unseen signatures; the other kinds take no lock.
#ifndef DEEPMAP_SERVE_PREPROCESSOR_H_
#define DEEPMAP_SERVE_PREPROCESSOR_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "core/deepmap.h"
#include "graph/dataset.h"
#include "kernels/vertex_feature_map.h"
#include "kernels/wl.h"
#include "nn/tensor.h"
#include "serve/sparse_input.h"

namespace deepmap::serve {

/// Rebuilds training-time preprocessing state and applies it to request
/// graphs.
class Preprocessor {
 public:
  /// `reference` is the dataset the model was trained on (or a dataset with
  /// identical preprocessing statistics); `config` must match training.
  Preprocessor(const graph::GraphDataset& reference,
               const core::DeepMapConfig& config);

  int feature_dim() const { return features_.dim(); }
  int sequence_length() const { return sequence_length_; }
  const kernels::DatasetVertexFeatures& features() const { return features_; }

  /// Builds the sparse CNN input for one request graph. Fails for empty
  /// graphs and for graphs with more vertices than the serving sequence
  /// length w.
  StatusOr<SparseInput> PreprocessSparse(const graph::Graph& g);

  /// PreprocessSparse(g) scattered into the dense [w*r, m] input.
  StatusOr<nn::Tensor> Preprocess(const graph::Graph& g);

 private:
  /// Per-vertex sparse maps for a request graph (locks for WL).
  std::vector<kernels::SparseFeatureMap> ComputeMaps(const graph::Graph& g);

  core::DeepMapConfig config_;
  kernels::DatasetVertexFeatures features_;
  int sequence_length_;
  std::mutex mu_;  // guards refinery_
  std::unique_ptr<kernels::WlRefinement> refinery_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_PREPROCESSOR_H_
