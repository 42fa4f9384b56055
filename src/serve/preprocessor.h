// Serving-time preprocessing: request graph -> sparse CNN input.
//
// At training time the whole pipeline (vertex feature maps -> vocabulary ->
// eigenvector-centrality alignment -> receptive fields -> dense tensor) is
// computed over the full dataset. To classify a graph that arrives at
// serving time the same state must be reproduced:
//   - the densification scheme (vocabulary / hashing, log scaling, column
//     scales) is rebuilt from the reference (training) dataset and frozen,
//   - the WL color dictionary is the one the reference graphs were refined
//     with, so request-graph colors are assigned the same ids the model was
//     trained on (WlRefinement dictionaries are shared, deterministic
//     state); the reference set is refined once, by the Preprocessor's own
//     refinery, which both yields the vocabulary and keeps the dictionary,
//   - the sequence length w is pinned to the training-time maximum.
// The scheme is built from the reference set's vertex rows, which are not
// kept: features() holds the vocabulary, the column scales and dim(), but
// no per-vertex map, since serving never reads one.
// Request graphs then go through the identical per-graph steps, except that
// nothing is densified: PreprocessSparse emits each vertex's nonzero
// (column, value) pairs once (converted to float) and a [w, r] table of
// which vertex fills each receptive-field position — a SparseInput, which
// CompiledModel consumes directly. A WL vertex's row is built straight from
// its H+1 colors (DatasetVertexFeatures::SparseRowInto), with no per-vertex
// SparseFeatureMap; the other kinds go through their maps and SparseRow.
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

#include <atomic>
#include <cstddef>
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

  /// Builds the sparse CNN input for one request graph. Fails with
  /// InvalidArgument for empty graphs, for graphs with more vertices than
  /// the serving sequence length w, and for graphs with a negative vertex
  /// label.
  StatusOr<SparseInput> PreprocessSparse(const graph::Graph& g);

  /// PreprocessSparse(g) scattered into the dense [w*r, m] input.
  StatusOr<nn::Tensor> Preprocess(const graph::Graph& g);

  /// Entries of the WL color dictionary, summed over the iterations (0 for
  /// the other kinds). Grows with every novel signature a request brings;
  /// read without taking the refinement lock.
  size_t wl_colors() const {
    return wl_colors_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-vertex sparse maps for a request graph of a non-WL kind.
  std::vector<kernels::SparseFeatureMap> ComputeMaps(const graph::Graph& g);
  /// Refines `g` (under mu_) and appends one row per vertex to `input`,
  /// each built from the vertex's H+1 colors.
  void AppendWlRows(const graph::Graph& g, SparseInput* input);

  core::DeepMapConfig config_;
  std::mutex mu_;  // guards refinery_
  // Declared before features_: the reference set is refined once, by the
  // refinery that then colors request graphs (null for the other kinds).
  std::unique_ptr<kernels::WlRefinement> refinery_;
  // refinery_'s dictionary entries, refreshed under mu_ after each Refine.
  std::atomic<size_t> wl_colors_{0};
  kernels::DatasetVertexFeatures features_;
  int sequence_length_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_PREPROCESSOR_H_
