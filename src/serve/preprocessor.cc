#include "serve/preprocessor.h"

#include <algorithm>

#include "common/failpoint.h"
#include "core/receptive_field.h"
#include "graph/digest.h"
#include "kernels/graphlet.h"
#include "kernels/shortest_path.h"
#include "kernels/treepp.h"

namespace deepmap::serve {

Preprocessor::Preprocessor(const graph::GraphDataset& reference,
                           const core::DeepMapConfig& config)
    : config_(config),
      features_(kernels::ComputeDatasetVertexFeatures(reference,
                                                      config.features)),
      sequence_length_(std::max(1, reference.MaxVertices())) {
  if (config_.features.kind == kernels::FeatureMapKind::kWlSubtree) {
    // Replay the training refinement so request graphs are colored with the
    // same dictionary ids the vocabulary (and the model) was built on.
    // WlRefinement is deterministic, so refining the reference graphs in
    // dataset order reproduces the training dictionaries exactly.
    refinery_ = std::make_unique<kernels::WlRefinement>(config_.features.wl);
    for (const graph::Graph& g : reference.graphs()) refinery_->Refine(g);
  }
}

std::vector<kernels::SparseFeatureMap> Preprocessor::ComputeMaps(
    const graph::Graph& g) {
  switch (config_.features.kind) {
    case kernels::FeatureMapKind::kGraphlet: {
      const graph::GraphDigest digest = graph::DigestOf(g);
      Rng rng(config_.features.seed ^ digest.lo ^
              (digest.hi * 0x9E3779B97F4A7C15ULL));
      return kernels::VertexGraphletFeatureMaps(g, config_.features.graphlet,
                                                rng);
    }
    case kernels::FeatureMapKind::kShortestPath:
      return kernels::VertexSpFeatureMaps(g, config_.features.shortest_path);
    case kernels::FeatureMapKind::kWlSubtree: {
      std::lock_guard<std::mutex> lock(mu_);  // dictionary may grow
      return kernels::VertexWlFeatureMaps(g, *refinery_);
    }
    case kernels::FeatureMapKind::kTreePp:
      return kernels::VertexTreePpFeatureMaps(g, config_.features.treepp);
  }
  return {};
}

StatusOr<SparseInput> Preprocessor::PreprocessSparse(const graph::Graph& g) {
  const int n = g.NumVertices();
  if (n == 0) {
    return Status::InvalidArgument("cannot classify an empty graph");
  }
  if (n > sequence_length_) {
    return Status::InvalidArgument(
        "request graph has " + std::to_string(n) +
        " vertices; the model was compiled for sequences of at most " +
        std::to_string(sequence_length_));
  }
  // Labels are the alphabet Sigma of non-negative integers; the feature
  // maps treat a negative one as a broken invariant and abort.
  for (graph::Label label : g.Labels()) {
    if (label < 0) {
      return Status::InvalidArgument(
          "request graph has negative vertex label " + std::to_string(label));
    }
  }
  // After validation: an injected fault models infrastructure failure on a
  // servable graph, not a client error (which keeps its InvalidArgument).
  DEEPMAP_INJECT_FAULT("serve.preprocess");
  const int r = config_.receptive_field_size;

  const std::vector<kernels::SparseFeatureMap> maps = ComputeMaps(g);

  // Row v is vertex v's nonzeros, stored once however many receptive
  // fields the vertex appears in.
  SparseInput input;
  input.w = sequence_length_;
  input.r = r;
  input.m = features_.dim();
  for (int v = 0; v < n; ++v) {
    for (const kernels::RowEntry& e :
         features_.SparseRow(maps[static_cast<size_t>(v)])) {
      input.Push(e.col, static_cast<float>(e.value));
    }
    input.EndRow();
  }

  Rng* alignment_rng = nullptr;
  Rng local_rng(config_.seed + 0x5eed);
  if (config_.alignment == core::AlignmentMeasure::kRandom) {
    alignment_rng = &local_rng;
  }
  const std::vector<double> centrality =
      core::ComputeCentrality(g, config_.alignment, alignment_rng);
  const std::vector<graph::Vertex> sequence =
      core::GenerateVertexSequence(g, centrality, sequence_length_);

  // kDummyVertex is the -1 the field table uses for a dummy row.
  input.field = core::BuildFieldTable(g, sequence, r, centrality);
  return input;
}

StatusOr<nn::Tensor> Preprocessor::Preprocess(const graph::Graph& g) {
  StatusOr<SparseInput> input = PreprocessSparse(g);
  if (!input.ok()) return input.status();
  return input.value().ToDense();
}

}  // namespace deepmap::serve
