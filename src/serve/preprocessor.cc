#include "serve/preprocessor.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "core/receptive_field.h"
#include "graph/digest.h"
#include "kernels/graphlet.h"
#include "kernels/shortest_path.h"
#include "kernels/treepp.h"
#include "obs/trace.h"

namespace deepmap::serve {

namespace {

/// The reference set's densification scheme, built from its vertex rows
/// without keeping them. For WL the rows come from `refinery`, which is
/// left holding the training dictionaries: the one refinement of the
/// reference set both builds the vocabulary and replays the dictionary that
/// request graphs are colored with. WlRefinement is deterministic, so this
/// equals the scheme of ComputeDatasetVertexFeatures, which refines with a
/// refinery of its own.
kernels::DatasetVertexFeatures ReferenceFeatures(
    const graph::GraphDataset& reference,
    const kernels::VertexFeatureConfig& config,
    kernels::WlRefinement* refinery) {
  kernels::VertexRows rows;
  if (refinery == nullptr) {
    rows = kernels::VertexRows::Of(
        kernels::ComputeDatasetVertexMaps(reference, config));
  } else {
    // Vertex v's map is one count per iteration, (h, colors[h][v]) -> 1,
    // and PackWlFeature orders those ids by h.
    for (const graph::Graph& g : reference.graphs()) {
      const std::vector<std::vector<int64_t>> colors = refinery->Refine(g);
      for (int v = 0; v < g.NumVertices(); ++v) {
        for (size_t h = 0; h < colors.size(); ++h) {
          rows.entries.emplace_back(
              kernels::PackWlFeature(static_cast<int>(h), colors[h][v]), 1.0);
        }
        rows.EndRow();
      }
    }
  }
  return kernels::DatasetVertexFeatures(rows, config.max_dense_dim,
                                        config.log_scale_dense,
                                        config.normalize_dense);
}

size_t DictionaryEntries(const kernels::WlRefinement& refinery) {
  size_t total = 0;
  for (int h = 1; h <= refinery.iterations(); ++h) {
    total += refinery.NumColorsAtIteration(h);
  }
  return total;
}

}  // namespace

Preprocessor::Preprocessor(const graph::GraphDataset& reference,
                           const core::DeepMapConfig& config)
    : config_(config),
      refinery_(config.features.kind == kernels::FeatureMapKind::kWlSubtree
                    ? std::make_unique<kernels::WlRefinement>(
                          config.features.wl)
                    : nullptr),
      features_(ReferenceFeatures(reference, config.features, refinery_.get())),
      sequence_length_(std::max(1, reference.MaxVertices())) {
  if (refinery_ != nullptr) wl_colors_ = DictionaryEntries(*refinery_);
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
    case kernels::FeatureMapKind::kTreePp:
      return kernels::VertexTreePpFeatureMaps(g, config_.features.treepp);
    case kernels::FeatureMapKind::kWlSubtree:
      break;  // PreprocessSparse builds WL rows from the colors
  }
  return {};
}

void Preprocessor::AppendWlRows(const graph::Graph& g, SparseInput* input) {
  std::vector<std::vector<int64_t>> colors;
  {
    std::lock_guard<std::mutex> lock(mu_);  // the dictionary may grow
    DEEPMAP_TRACE_SPAN("kernels.feature_maps", "serve");
    colors = refinery_->Refine(g);
    wl_colors_.store(DictionaryEntries(*refinery_), std::memory_order_relaxed);
  }
  // Vertex v's map is one count per iteration, (h, colors[h][v]) -> 1, and
  // PackWlFeature orders those ids by h.
  DEEPMAP_TRACE_SPAN("kernels.densify", "serve");
  const size_t k = colors.size();
  std::vector<std::pair<kernels::FeatureId, double>> ids(k);
  std::vector<kernels::RowEntry> row(k);
  for (int v = 0; v < g.NumVertices(); ++v) {
    for (size_t h = 0; h < k; ++h) {
      ids[h] = {kernels::PackWlFeature(static_cast<int>(h), colors[h][v]),
                1.0};
    }
    const size_t nonzeros = features_.SparseRowInto(ids.data(), k, row.data());
    for (size_t i = 0; i < nonzeros; ++i) {
      input->Push(row[i].col, static_cast<float>(row[i].value));
    }
    input->EndRow();
  }
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

  // Row v is vertex v's nonzeros, stored once however many receptive
  // fields the vertex appears in.
  SparseInput input;
  input.w = sequence_length_;
  input.r = r;
  input.m = features_.dim();
  if (refinery_ != nullptr) {
    AppendWlRows(g, &input);
  } else {
    std::vector<kernels::SparseFeatureMap> maps;
    {
      DEEPMAP_TRACE_SPAN("kernels.feature_maps", "serve");
      maps = ComputeMaps(g);
    }
    DEEPMAP_TRACE_SPAN("kernels.densify", "serve");
    for (const kernels::SparseFeatureMap& map : maps) {
      for (const kernels::RowEntry& e : features_.SparseRow(map)) {
        input.Push(e.col, static_cast<float>(e.value));
      }
      input.EndRow();
    }
  }

  Rng* alignment_rng = nullptr;
  Rng local_rng(config_.seed + 0x5eed);
  if (config_.alignment == core::AlignmentMeasure::kRandom) {
    alignment_rng = &local_rng;
  }
  std::vector<double> centrality;
  {
    DEEPMAP_TRACE_SPAN("core.centrality", "serve");
    centrality = core::ComputeCentrality(g, config_.alignment, alignment_rng);
  }
  std::vector<graph::Vertex> sequence;
  {
    DEEPMAP_TRACE_SPAN("core.alignment", "serve");
    sequence = core::GenerateVertexSequence(g, centrality, sequence_length_);
  }
  // kDummyVertex is the -1 the field table uses for a dummy row.
  DEEPMAP_TRACE_SPAN("core.receptive_field", "serve");
  input.field = core::BuildFieldTable(g, sequence, r, centrality);
  return input;
}

StatusOr<nn::Tensor> Preprocessor::Preprocess(const graph::Graph& g) {
  StatusOr<SparseInput> input = PreprocessSparse(g);
  if (!input.ok()) return input.status();
  return input.value().ToDense();
}

}  // namespace deepmap::serve
