// Sequential model container and the generic sample-at-a-time trainer.
//
// The trainer is templated on (Model, Sample) so the same loop trains
// DEEPMAP's CNN (Sample = Tensor) and the GNN baselines (Sample = graph
// structure + vertex features). A Model must provide:
//   Tensor Forward(const Sample&, bool training);   // returns logits [C]
//   void Backward(const Tensor& grad_logits);       // accumulates grads
//   std::vector<Param> Params();
//
// Mini-batches are realized by gradient accumulation: the paper's batch
// sizes {32, 256} average gradients over that many samples before an
// optimizer step. Learning-rate plateau decay matches the paper: x0.5 after
// `plateau_patience` epochs without loss improvement.
#ifndef DEEPMAP_NN_MODEL_H_
#define DEEPMAP_NN_MODEL_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "nn/layer.h"
#include "nn/optimizer.h"
#include "nn/softmax_xent.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace deepmap::nn {

/// A linear stack of layers.
class Sequential {
 public:
  Sequential() = default;

  /// Appends a layer (takes ownership). Returns *this for chaining.
  Sequential& Add(std::unique_ptr<Layer> layer);

  /// Constructs and appends a layer in place.
  template <typename L, typename... Args>
  Sequential& Emplace(Args&&... args) {
    return Add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor Forward(const Tensor& input, bool training);

  /// Back-propagates through the stack; returns dLoss/dInput so models can
  /// chain further layers in front of the sequential block.
  Tensor Backward(const Tensor& grad_output);

  std::vector<Param> Params();

  /// Total number of trainable scalars.
  int64_t NumParameters();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Training hyperparameters (defaults follow the paper's Section 5.1).
struct TrainConfig {
  int epochs = 100;
  int batch_size = 32;
  double learning_rate = 0.01;
  OptimizerKind optimizer = OptimizerKind::kRmsProp;
  /// Plateau schedule: lr *= plateau_factor after plateau_patience epochs
  /// with no improvement in training loss.
  double plateau_factor = 0.5;
  int plateau_patience = 5;
  double min_learning_rate = 1e-5;
  uint64_t seed = 42;
  bool shuffle = true;
};

/// Per-epoch training statistics.
struct EpochStats {
  double loss = 0.0;
  double accuracy = 0.0;       // training accuracy this epoch
  double learning_rate = 0.0;
  double seconds = 0.0;        // wall-clock time of the epoch
};

/// Full training trace.
struct TrainHistory {
  std::vector<EpochStats> epochs;

  double final_loss() const {
    return epochs.empty() ? 0.0 : epochs.back().loss;
  }
  double final_accuracy() const {
    return epochs.empty() ? 0.0 : epochs.back().accuracy;
  }
  /// Best (highest) training accuracy over all epochs.
  double best_accuracy() const {
    double best = 0.0;
    for (const EpochStats& e : epochs) best = std::max(best, e.accuracy);
    return best;
  }
  /// Mean wall-clock seconds per epoch (the paper's Table 5 metric).
  double mean_epoch_seconds() const {
    if (epochs.empty()) return 0.0;
    double total = 0.0;
    for (const EpochStats& e : epochs) total += e.seconds;
    return total / static_cast<double>(epochs.size());
  }
};

/// Argmax class prediction for one sample.
template <typename Model, typename Sample>
int Predict(Model& model, const Sample& sample) {
  return model.Forward(sample, /*training=*/false).ArgMax();
}

/// Fraction of samples classified correctly.
template <typename Model, typename Sample>
double EvaluateAccuracy(Model& model, const std::vector<Sample>& samples,
                        const std::vector<int>& labels) {
  DEEPMAP_CHECK_EQ(samples.size(), labels.size());
  if (samples.empty()) return 0.0;
  int correct = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (Predict(model, samples[i]) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(samples.size());
}

/// Trains a softmax classifier with mini-batch gradient accumulation.
template <typename Model, typename Sample>
TrainHistory TrainClassifier(Model& model, const std::vector<Sample>& samples,
                             const std::vector<int>& labels,
                             const TrainConfig& config) {
  DEEPMAP_CHECK_EQ(samples.size(), labels.size());
  DEEPMAP_CHECK(!samples.empty());
  Rng rng(config.seed);
  std::vector<Param> params = model.Params();
  std::unique_ptr<Optimizer> optimizer =
      MakeOptimizer(config.optimizer, config.learning_rate);

  std::vector<size_t> order(samples.size());
  std::iota(order.begin(), order.end(), size_t{0});

  TrainHistory history;
  double best_loss = std::numeric_limits<double>::infinity();
  int epochs_since_improvement = 0;
  obs::Counter& epochs_total = obs::MetricsRegistry::Default().GetCounter(
      "deepmap_nn_train_epochs_total", "training epochs completed");
  obs::Histogram& epoch_seconds = obs::MetricsRegistry::Default().GetHistogram(
      "deepmap_nn_train_epoch_seconds", {},
      "wall time per training epoch (the paper's Table 5 metric)");
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedStageTimer epoch_span(&epoch_seconds, "train.epoch", "nn");
    epochs_total.Increment();
    Stopwatch timer;
    if (config.shuffle) rng.Shuffle(order);
    double epoch_loss = 0.0;
    int correct = 0;
    size_t cursor = 0;
    while (cursor < order.size()) {
      size_t batch_end =
          std::min(order.size(), cursor + static_cast<size_t>(config.batch_size));
      ZeroGrads(params);
      int batch_count = 0;
      for (size_t b = cursor; b < batch_end; ++b) {
        const size_t i = order[b];
        Tensor logits = model.Forward(samples[i], /*training=*/true);
        LossAndGrad lg = SoftmaxCrossEntropy(logits, labels[i]);
        epoch_loss += lg.loss;
        if (logits.ArgMax() == labels[i]) ++correct;
        model.Backward(lg.grad_logits);
        ++batch_count;
      }
      ScaleGrads(params, 1.0f / static_cast<float>(batch_count));
      optimizer->Step(params);
      cursor = batch_end;
    }
    EpochStats stats;
    stats.loss = epoch_loss / static_cast<double>(samples.size());
    stats.accuracy =
        static_cast<double>(correct) / static_cast<double>(samples.size());
    stats.learning_rate = optimizer->learning_rate();
    stats.seconds = timer.ElapsedSeconds();
    history.epochs.push_back(stats);

    // Plateau learning-rate decay (paper: halve after 5 stagnant epochs).
    if (stats.loss + 1e-9 < best_loss) {
      best_loss = stats.loss;
      epochs_since_improvement = 0;
    } else if (++epochs_since_improvement >= config.plateau_patience) {
      double lr = std::max(config.min_learning_rate,
                           optimizer->learning_rate() * config.plateau_factor);
      optimizer->set_learning_rate(lr);
      epochs_since_improvement = 0;
    }
  }
  return history;
}

}  // namespace deepmap::nn

#endif  // DEEPMAP_NN_MODEL_H_
