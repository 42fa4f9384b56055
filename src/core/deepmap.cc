#include "core/deepmap.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/pooling.h"

namespace deepmap::core {

std::string ReadoutKindName(ReadoutKind readout) {
  switch (readout) {
    case ReadoutKind::kSum:
      return "sum";
    case ReadoutKind::kMean:
      return "mean";
    case ReadoutKind::kConcat:
      return "concat";
  }
  return "?";
}

nn::Tensor BuildDeepMapInput(const graph::Graph& g,
                             const kernels::DatasetVertexFeatures& features,
                             int graph_index, int sequence_length, int r,
                             AlignmentMeasure alignment, Rng* rng) {
  DEEPMAP_CHECK_GE(sequence_length, g.NumVertices());
  const int m = features.dim();
  nn::Tensor input({sequence_length * r, m});

  const std::vector<double> centrality = ComputeCentrality(g, alignment, rng);
  const std::vector<graph::Vertex> sequence =
      GenerateVertexSequence(g, centrality, sequence_length);

  // Densify every vertex once up front: a vertex appears in up to r
  // receptive fields, and DenseRow allocates and probes the vocabulary on
  // each call, so the per-(slot, pos) lookups the loop used to do dominated
  // the build. The rows are pure functions of (graph, vertex), so hoisting
  // them is value-identical.
  const int n = g.NumVertices();
  std::vector<std::vector<float>> rows(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    const std::vector<double> dense = features.DenseRow(graph_index, v);
    std::vector<float>& row = rows[static_cast<size_t>(v)];
    row.resize(dense.size());
    for (size_t c = 0; c < dense.size(); ++c) {
      row[c] = static_cast<float>(dense[c]);
    }
  }

  const std::vector<graph::Vertex> table =
      BuildFieldTable(g, sequence, r, centrality);
  for (size_t i = 0; i < table.size(); ++i) {
    const graph::Vertex u = table[i];
    if (u == kDummyVertex) continue;  // zero row (Algorithm 1 line 19)
    const std::vector<float>& row = rows[static_cast<size_t>(u)];
    std::copy(row.begin(), row.end(), input.data() + i * m);
  }
  return input;
}

std::vector<nn::Tensor> BuildDeepMapInputs(
    const graph::GraphDataset& dataset,
    const kernels::DatasetVertexFeatures& features,
    const DeepMapConfig& config) {
  const int w = std::max(1, dataset.MaxVertices());
  std::vector<nn::Tensor> inputs(static_cast<size_t>(dataset.size()));
  // One task per graph. Each graph draws from its own RNG stream derived
  // from (config.seed, graph_index) — not from a generator shared across
  // graphs — so the outputs are independent of iteration order and
  // byte-identical for every thread count (the stream only matters for
  // AlignmentMeasure::kRandom; the other measures never sample).
  ParallelFor(static_cast<size_t>(dataset.size()), [&](size_t g) {
    Rng rng(config.seed ^ (0x5eedULL + g * 0x9E3779B97F4A7C15ULL));
    inputs[g] = BuildDeepMapInput(dataset.graph(static_cast<int>(g)), features,
                                  static_cast<int>(g), w,
                                  config.receptive_field_size,
                                  config.alignment, &rng);
  });
  return inputs;
}

DeepMapModel::DeepMapModel(int feature_dim, int sequence_length,
                           int num_classes, const DeepMapConfig& config)
    : rng_(config.seed) {
  DEEPMAP_CHECK_GT(feature_dim, 0);
  DEEPMAP_CHECK_GT(sequence_length, 0);
  DEEPMAP_CHECK_GT(num_classes, 0);
  const int r = config.receptive_field_size;
  net_.Emplace<nn::Conv1D>(feature_dim, config.conv1_channels, r, r, rng_)
      .Emplace<nn::Relu>()
      .Emplace<nn::Conv1D>(config.conv1_channels, config.conv2_channels, 1, 1,
                           rng_)
      .Emplace<nn::Relu>()
      .Emplace<nn::Conv1D>(config.conv2_channels, config.conv3_channels, 1, 1,
                           rng_)
      .Emplace<nn::Relu>();
  int readout_dim = config.conv3_channels;
  switch (config.readout) {
    case ReadoutKind::kSum:
      net_.Emplace<nn::SumPool>();
      break;
    case ReadoutKind::kMean:
      net_.Emplace<nn::MeanPool>();
      break;
    case ReadoutKind::kConcat:
      net_.Emplace<nn::Flatten>();
      readout_dim = config.conv3_channels * sequence_length;
      break;
  }
  net_.Emplace<nn::Dense>(readout_dim, config.dense_units, rng_)
      .Emplace<nn::Relu>()
      .Emplace<nn::Dropout>(config.dropout_rate, rng_)
      .Emplace<nn::Dense>(config.dense_units, num_classes, rng_);
}

nn::Tensor DeepMapModel::Forward(const nn::Tensor& input, bool training) {
  return net_.Forward(input, training);
}

void DeepMapModel::Backward(const nn::Tensor& grad_logits) {
  net_.Backward(grad_logits);
}

std::vector<nn::Param> DeepMapModel::Params() { return net_.Params(); }

DeepMapPipeline::DeepMapPipeline(const graph::GraphDataset& dataset,
                                 const DeepMapConfig& config)
    : dataset_(&dataset),
      config_(config),
      features_(kernels::ComputeDatasetVertexFeatures(dataset,
                                                      config.features)),
      sequence_length_(std::max(1, dataset.MaxVertices())),
      num_classes_(dataset.NumClasses()) {
  inputs_ = BuildDeepMapInputs(dataset, features_, config_);
}

EvaluationResult DeepMapPipeline::RunFold(
    const std::vector<int>& train_indices,
    const std::vector<int>& test_indices, uint64_t fold_seed) const {
  std::vector<nn::Tensor> train_inputs, test_inputs;
  std::vector<int> train_labels, test_labels;
  train_inputs.reserve(train_indices.size());
  for (int i : train_indices) {
    train_inputs.push_back(inputs_[i]);
    train_labels.push_back(dataset_->label(i));
  }
  test_inputs.reserve(test_indices.size());
  for (int i : test_indices) {
    test_inputs.push_back(inputs_[i]);
    test_labels.push_back(dataset_->label(i));
  }

  DeepMapConfig fold_config = config_;
  fold_config.seed = fold_seed;
  fold_config.train.seed = fold_seed + 1;
  DeepMapModel model(features_.dim(), sequence_length_, num_classes_,
                     fold_config);
  EvaluationResult result;
  result.history =
      nn::TrainClassifier(model, train_inputs, train_labels, fold_config.train);
  result.test_accuracy = nn::EvaluateAccuracy(model, test_inputs, test_labels);
  return result;
}

}  // namespace deepmap::core
